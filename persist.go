package vaq

import (
	"io"
	"log/slog"

	"vaq/internal/core"
)

// WriteTo serializes the index (model, dictionaries, codes and skip
// structure) so it can be reloaded without retraining. The format is
// versioned; Read rejects unknown versions.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return ix.inner.WriteTo(w)
}

// Read deserializes an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	return wrapIndex(core.Read(r))
}

// ReadLogged is Read with structured logging: the load is logged to l and
// the returned index adopts l for its maintenance paths (Add, WriteTo) —
// serialized streams carry no logger, it is a runtime knob. nil l behaves
// exactly like Read.
func ReadLogged(r io.Reader, l *slog.Logger) (*Index, error) {
	return wrapIndex(core.ReadLogged(r, l))
}

// SetLogger replaces the structured logger used by the maintenance paths
// (Add, WriteTo). nil discards.
func (ix *Index) SetLogger(l *slog.Logger) { ix.inner.SetLogger(l) }

// Save writes the index to a file.
func (ix *Index) Save(path string) error {
	return ix.inner.Save(path)
}

// Load reads an index from a file.
func Load(path string) (*Index, error) {
	return wrapIndex(core.Load(path))
}
