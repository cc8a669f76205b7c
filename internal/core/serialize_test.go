package core

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := skewedData(rng, 800, 24, 1.2)
	ix, err := Build(x, x, Config{
		NumSubspaces: 6, Budget: 48, Seed: 21, TIClusters: 20, NonUniform: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	nBytes, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nBytes != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", nBytes, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ix.Len() || got.Dim() != ix.Dim() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), got.Dim(), ix.Len(), ix.Dim())
	}
	gotBits, wantBits := got.Bits(), ix.Bits()
	for i := range wantBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("bits mismatch: %v vs %v", gotBits, wantBits)
		}
	}
	if got.TIClusterCount() != ix.TIClusterCount() {
		t.Fatalf("cluster count %d vs %d", got.TIClusterCount(), ix.TIClusterCount())
	}
	// Identical answers across every mode.
	for trial := 0; trial < 10; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		for _, opt := range []SearchOptions{
			{Mode: ModeHeap},
			{Mode: ModeEA},
			{Mode: ModeTIEA, VisitFrac: 0.3},
		} {
			a, err := ix.SearchWith(q, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.SearchWith(q, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("result lengths differ")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("mode %v result %d: %v vs %v", opt.Mode, i, a[i], b[i])
				}
			}
		}
	}
}

func TestIndexFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := skewedData(rng, 300, 16, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 24, Seed: 22, TIClusters: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.vaqi"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, _ := ix.Search(x.Row(5), 3)
	res2, _ := got.Search(x.Row(5), 3)
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("file round trip answers differ: %v vs %v", res1, res2)
		}
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := Read(bytes.NewReader([]byte("NOTANINDEXATALL!"))); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Truncated stream: write a valid index and chop it.
	rng := rand.New(rand.NewSource(23))
	x := skewedData(rng, 100, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 8, Seed: 23, TIClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 3, 10} {
		cut := buf.Len() / frac
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated stream (1/%d) must fail", frac)
		}
	}
	// Corrupted version.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version must fail")
	}
}

// TestReadRejectsInconsistentIndex writes indexes whose parts disagree —
// the corruptions that made the query kernels index out of range or spin
// forever — and checks Read refuses each one.
func TestReadRejectsInconsistentIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := skewedData(rng, 100, 8, 1.0)
	cases := map[string]func(ix *Index){
		"EACheckEvery 0":      func(ix *Index) { ix.cfg.EACheckEvery = 0 },
		"EACheckEvery huge":   func(ix *Index) { ix.cfg.EACheckEvery = 1 << 62 },
		"code past codebook":  func(ix *Index) { ix.codes.Data[3] = uint16(ix.cb.Books[1].Rows) },
		"TI id out of range":  func(ix *Index) { ix.ti.clusters[0][0].id = ix.n + 7 },
		"TI id repeated":      func(ix *Index) { ix.ti.clusters[0][0].id = ix.ti.clusters[1][0].id },
		"TI member missing":   func(ix *Index) { ix.ti.clusters[0] = ix.ti.clusters[0][1:] },
		"query dim mismatch":  func(ix *Index) { ix.queryDim++ },
		"TI prefix past subs": func(ix *Index) { ix.ti.prefixSubspaces = ix.cb.Sub.M() + 1 },
	}
	for name, corrupt := range cases {
		ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 8, Seed: 29, TIClusters: 4})
		if err != nil {
			t.Fatal(err)
		}
		corrupt(ix)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("%s: Read accepted the index", name)
		}
	}
}
