package vec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadMatrixHostileShapeAllocatesLittle feeds a header claiming a
// 2^39-element matrix (inside the shape bound) with no body: the read
// must fail without allocating for the claimed size.
func TestReadMatrixHostileShapeAllocatesLittle(t *testing.T) {
	hdr := append([]byte(nil), magicMatrix[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1<<20)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1<<19)
	hdr = append(hdr, make([]byte, 64)...) // a little body, far short
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMatrix(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated hostile matrix accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ReadMatrix allocated %d bytes before failing, want < 1 MiB", got)
	}
}

// FuzzReadMatrix ensures the deserializer never panics or over-allocates
// on corrupt input — it must fail cleanly or produce a valid matrix.
func FuzzReadMatrix(f *testing.F) {
	// Seed with a valid serialization and some mutations.
	m := NewMatrix(3, 2)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("VAQ1"))
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncated)
	huge := append([]byte(nil), valid...)
	huge[4] = 0xFF
	huge[11] = 0xFF
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadMatrix(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Rows < 0 || got.Cols < 0 || len(got.Data) != got.Rows*got.Cols {
			t.Fatalf("invalid matrix accepted: %dx%d len %d", got.Rows, got.Cols, len(got.Data))
		}
	})
}
