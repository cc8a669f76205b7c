package workload

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadLogHostileLengthsAllocateLittle feeds headers that claim far
// more data than they carry — a record count just under the bound, and
// one record whose query and result lengths sit at maxVecLen — and
// checks each fails without allocating for the claimed sizes.
func TestReadLogHostileLengthsAllocateLittle(t *testing.T) {
	header := func(count uint32) []byte {
		b := []byte(logMagic)
		b = binary.LittleEndian.AppendUint32(b, FormatVersion)
		b = binary.LittleEndian.AppendUint16(b, 0) // no fingerprint
		b = binary.LittleEndian.AppendUint32(b, 3) // dim
		b = binary.LittleEndian.AppendUint32(b, 0) // shards
		return binary.LittleEndian.AppendUint32(b, count)
	}
	bigRecord := header(1)
	bigRecord = append(bigRecord, make([]byte, 8+8+8+4+4+8+4+1)...) // fixed fields
	bigRecord = binary.LittleEndian.AppendUint32(bigRecord, maxVecLen)
	for name, data := range map[string][]byte{
		"record count": header(maxRecords - 1),
		"query length": bigRecord,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadLog(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte hostile log accepted", name, len(data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: ReadLog allocated %d bytes before failing, want < 1 MiB", name, got)
		}
	}
}

// FuzzReadLog checks the .vaqwl decoder on arbitrary input: no panics,
// no allocation beyond what the stream delivers, and any log it accepts
// re-encodes to bytes that decode and re-encode identically.
func FuzzReadLog(f *testing.F) {
	l := &Log{Fingerprint: "0123456789abcdef", Dim: 3, Shards: 2}
	for i := 0; i < 3; i++ {
		l.Records = append(l.Records, testRecord(i))
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	v1 := &Log{Version: 1, Fingerprint: "fp", Dim: 3, Records: l.Records[:1]}
	buf.Reset()
	if _, err := v1.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := got.WriteTo(&first); err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		back, err := ReadLog(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v", err)
		}
		var second bytes.Buffer
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
