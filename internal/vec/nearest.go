package vec

// One query against many rows: the per-row squared distance that
// nearest-row search (k-means assignment, encoding, TI cluster assignment)
// and lookup-table fills share. The 4-, 6- and 8-dimensional rows — the
// usual subspace lengths — have unrolled loop bodies (written out by hand:
// the 6- and 8-wide bodies exceed the inliner's budget as functions).
// Every path keeps SquaredL2's float association (per-lane sums over
// 4-wide rounds, then d0+d1+d2+d3, then the tail in order), so each
// distance is bit-identical to SquaredL2(q, row).

// nearestChunk is how many distances Nearest computes per batch before
// scanning them for the minimum; the batch lives on the stack.
const nearestChunk = 64

// Nearest returns the index of the row of rows nearest to q and its
// squared distance, with the first minimum winning ties — the same answer
// as a loop of SquaredL2 with a strict < update. rows must have at least
// one row of len(q) columns.
func Nearest(q []float32, rows *Matrix) (int, float32) {
	var buf [nearestChunk]float32
	dim := len(q)
	out := buf[:min(nearestChunk, rows.Rows)]
	distances(q, rows.Data, out)
	best, bestD := 0, out[0]
	for lo := 0; ; {
		for j, d := range out {
			if d < bestD {
				best, bestD = lo+j, d
			}
		}
		lo += len(out)
		if lo >= rows.Rows {
			return best, bestD
		}
		out = buf[:min(nearestChunk, rows.Rows-lo)]
		distances(q, rows.Data[lo*dim:], out)
	}
}

// Distances sets out[c] = SquaredL2(q, rows.Row(c)) for every c <
// len(out) — a full lookup table for one subspace.
func Distances(q []float32, rows *Matrix, out []float32) { distances(q, rows.Data, out) }

// distances is Distances over raw row-major storage starting at row 0.
func distances(q, data, out []float32) {
	switch len(q) {
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for c := range out {
			out[c] = sq4(q0, q1, q2, q3, data[c*4:])
		}
		return
	case 6:
		q := (*[6]float32)(q)
		for c := range out {
			r := data[c*6 : c*6+6 : c*6+6]
			t0 := q[0] - r[0]
			t1 := q[1] - r[1]
			t2 := q[2] - r[2]
			t3 := q[3] - r[3]
			t4 := q[4] - r[4]
			t5 := q[5] - r[5]
			out[c] = t0*t0 + t1*t1 + t2*t2 + t3*t3 + t4*t4 + t5*t5
		}
		return
	case 8:
		q := (*[8]float32)(q)
		for c := range out {
			r := data[c*8 : c*8+8 : c*8+8]
			t0 := q[0] - r[0]
			t1 := q[1] - r[1]
			t2 := q[2] - r[2]
			t3 := q[3] - r[3]
			u0 := q[4] - r[4]
			u1 := q[5] - r[5]
			u2 := q[6] - r[6]
			u3 := q[7] - r[7]
			out[c] = (t0*t0 + u0*u0) + (t1*t1 + u1*u1) + (t2*t2 + u2*u2) + (t3*t3 + u3*u3)
		}
		return
	}
	dim := len(q)
	for c := range out {
		out[c] = SquaredL2(q, data[c*dim:c*dim+dim])
	}
}

// DistancesAt sets out[c] = SquaredL2(q, rows.Row(c)) for each row index c
// listed in at — the entries of a lookup table that a given set of codes
// reads. Repeated indices recompute the same value.
func DistancesAt[T uint8 | uint16](q []float32, rows *Matrix, at []T, out []float32) {
	data := rows.Data
	switch len(q) {
	case 4:
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		for _, c := range at {
			out[c] = sq4(q0, q1, q2, q3, data[int(c)*4:])
		}
		return
	case 6:
		q := (*[6]float32)(q)
		for _, c := range at {
			i := int(c) * 6
			r := data[i : i+6 : i+6]
			t0 := q[0] - r[0]
			t1 := q[1] - r[1]
			t2 := q[2] - r[2]
			t3 := q[3] - r[3]
			t4 := q[4] - r[4]
			t5 := q[5] - r[5]
			out[c] = t0*t0 + t1*t1 + t2*t2 + t3*t3 + t4*t4 + t5*t5
		}
		return
	case 8:
		q := (*[8]float32)(q)
		for _, c := range at {
			i := int(c) * 8
			r := data[i : i+8 : i+8]
			t0 := q[0] - r[0]
			t1 := q[1] - r[1]
			t2 := q[2] - r[2]
			t3 := q[3] - r[3]
			u0 := q[4] - r[4]
			u1 := q[5] - r[5]
			u2 := q[6] - r[6]
			u3 := q[7] - r[7]
			out[c] = (t0*t0 + u0*u0) + (t1*t1 + u1*u1) + (t2*t2 + u2*u2) + (t3*t3 + u3*u3)
		}
		return
	}
	dim := len(q)
	for _, c := range at {
		i := int(c) * dim
		out[c] = SquaredL2(q, data[i:i+dim])
	}
}

// sq4 is SquaredL2 at n=4: four products summed left to right (the
// 4-wide round's lanes are single terms, so d0+d1+d2+d3 is that sum).
func sq4(q0, q1, q2, q3 float32, r []float32) float32 {
	r = r[:4:4]
	t0 := q0 - r[0]
	t1 := q1 - r[1]
	t2 := q2 - r[2]
	t3 := q3 - r[3]
	return t0*t0 + t1*t1 + t2*t2 + t3*t3
}
