package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"

	"vaq/internal/core"
	"vaq/internal/vec"
)

// Sharded container format ("VAQS", version 1): a thin envelope around
// one core v2 stream per shard.
//
//	[4]byte  magic "VAQS"
//	u64      container version (1)
//	u64      shard count S
//	u64      assignment policy
//	u64      next global id
//	S x:
//	  u64    id-mapping length
//	  u32... local-to-global id mapping
//	  u64    core stream byte length
//	  []byte core v2 stream (exactly that many bytes)
//
// Each shard's stream is length-prefixed because core.Read buffers its
// reader and may not consume its segment exactly; the reader side wraps
// each segment in an io.LimitReader and drains the remainder so the next
// shard always starts aligned. With S=1 the payload after the envelope is
// byte-identical to the unsharded index's WriteTo output.
const (
	shardMagic            = "VAQS"
	shardFormatVersion    = 1
	maxReasonableShards   = 1 << 16
	maxReasonableIDSlices = 1 << 31
)

// WriteTo serializes the sharded index. It holds every shard's Add lock
// for the duration so the id mappings and encoded codes form one
// consistent snapshot even under concurrent ingest.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	for _, st := range x.states {
		st.addMu.Lock()
	}
	defer func() {
		for _, st := range x.states {
			st.addMu.Unlock()
		}
	}()
	bw := bufio.NewWriter(w)
	var n int64
	wr := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(shardMagic); err != nil {
		return n, err
	}
	n += int64(len(shardMagic))
	for _, v := range []uint64{shardFormatVersion, uint64(len(x.states)), uint64(x.opts.Policy), uint64(x.nextID.Load())} {
		if err := wr(v); err != nil {
			return n, err
		}
	}
	var buf bytes.Buffer
	for si, st := range x.states {
		ids := *st.ids.Load()
		if err := wr(uint64(len(ids))); err != nil {
			return n, err
		}
		if len(ids) > 0 {
			if err := wr(ids); err != nil {
				return n, err
			}
		}
		buf.Reset()
		if _, err := st.ix.WriteTo(&buf); err != nil {
			return n, fmt.Errorf("shard %d: %w", si, err)
		}
		if err := wr(uint64(buf.Len())); err != nil {
			return n, err
		}
		nn, err := bw.Write(buf.Bytes())
		n += int64(nn)
		if err != nil {
			return n, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return n, bw.Flush()
}

// Read deserializes a sharded index written by WriteTo. Like the core
// reader, loaded indexes carry fresh telemetry registries and no
// runtime-only configuration (SLOs, capture, recall sampling).
func Read(r io.Reader) (*Index, error) {
	return ReadLogged(r, nil)
}

// ReadLogged is Read with a structured logger attached to the loaded
// index (used for merged-registry SLO breach events configured later).
func ReadLogged(r io.Reader, logger *slog.Logger) (*Index, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("shard: reading magic: %w", err)
	}
	if string(magic[:]) != shardMagic {
		return nil, fmt.Errorf("shard: bad magic %q (want %q)", magic[:], shardMagic)
	}
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var version, shards, policy, nextID uint64
	for _, p := range []*uint64{&version, &shards, &policy, &nextID} {
		if err := rd(p); err != nil {
			return nil, fmt.Errorf("shard: reading header: %w", err)
		}
	}
	if version != shardFormatVersion {
		return nil, fmt.Errorf("shard: unsupported container version %d (want %d)", version, shardFormatVersion)
	}
	if shards == 0 || shards > maxReasonableShards {
		return nil, fmt.Errorf("shard: implausible shard count %d", shards)
	}
	if policy != uint64(PolicyRoundRobin) && policy != uint64(PolicyLeastLoaded) {
		return nil, fmt.Errorf("shard: unknown policy %d", policy)
	}
	x := &Index{
		opts:   Options{Shards: int(shards), Policy: Policy(policy)},
		states: make([]*shardState, shards),
	}
	x.nextID.Store(int64(nextID))
	for si := range x.states {
		var idLen uint64
		if err := rd(&idLen); err != nil {
			return nil, fmt.Errorf("shard %d: reading id count: %w", si, err)
		}
		if idLen > maxReasonableIDSlices {
			return nil, fmt.Errorf("shard %d: implausible id count %d", si, idLen)
		}
		// Read in bounded chunks: a hostile id count costs memory only as
		// fast as the stream delivers ids.
		ids, err := vec.ReadWords(r, int(idLen), 4, func(b []byte) int32 {
			return int32(binary.LittleEndian.Uint32(b))
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: reading id mapping: %w", si, err)
		}
		var blen uint64
		if err := rd(&blen); err != nil {
			return nil, fmt.Errorf("shard %d: reading stream length: %w", si, err)
		}
		lr := io.LimitReader(r, int64(blen))
		ix, err := core.ReadLogged(lr, logger)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		// core.Read buffers: drain whatever of this shard's segment its
		// bufio did not pull so the next segment starts aligned.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("shard %d: draining stream: %w", si, err)
		}
		if ix.Len() != int(idLen) {
			return nil, fmt.Errorf("shard %d: id mapping has %d entries, index has %d vectors", si, idLen, ix.Len())
		}
		st := &shardState{ix: ix}
		st.ids.Store(&ids)
		if !monotone(ids) {
			st.unordered.Store(true)
		}
		x.states[si] = st
	}
	x.dim = x.states[0].ix.Dim()
	for si, st := range x.states[1:] {
		if st.ix.Dim() != x.dim {
			return nil, fmt.Errorf("shard %d: dim %d != shard 0 dim %d", si+1, st.ix.Dim(), x.dim)
		}
	}
	x.initTelemetry(true, nil, logger)
	return x, nil
}

// monotone reports whether the id mapping is strictly increasing (the
// build-time stripe always is; interleaved concurrent Adds may not be).
func monotone(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// Save writes the sharded index to path (atomic rename).
func (x *Index) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := x.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a sharded index from path.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	x, err := ReadLogged(f, nil)
	if err != nil {
		return nil, fmt.Errorf("shard: loading %s: %w", path, err)
	}
	return x, nil
}
