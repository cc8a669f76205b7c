package shard

import (
	"bytes"
	"testing"

	"vaq/internal/core"
)

// FuzzReadSharded checks the "VAQS" container decoder on arbitrary input:
// no panics, no allocation beyond what the stream delivers, and any index
// it accepts re-encodes to bytes that decode and re-encode identically.
func FuzzReadSharded(f *testing.F) {
	data := testData(f, 96, 8, 5)
	x := mustBuild(f, data, core.Config{NumSubspaces: 2, Budget: 8, Seed: 5, TIClusters: 3}, Options{Shards: 2})
	if _, err := x.Add(testData(f, 5, 8, 6)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := got.WriteTo(&first); err != nil {
			t.Fatalf("accepted index does not re-encode: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v", err)
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
