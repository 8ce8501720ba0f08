package mlight

import (
	"io"

	"mlight/internal/core"
	"mlight/internal/dataset"
	"mlight/internal/index"
)

// NEDatasetSize is the cardinality of the paper's NE postal dataset.
const NEDatasetSize = dataset.NESize

// GenerateNE produces n records from the synthetic stand-in for the paper's
// NE postal dataset (three metropolitan clusters with town- and
// street-level substructure over sparse background noise), deterministically
// for a seed. See internal/dataset for the model.
func GenerateNE(n int, seed int64) []Record {
	return dataset.Generate(n, seed)
}

// GenerateUniform produces n records uniform over the unit m-cube.
func GenerateUniform(n, dims int, seed int64) []Record {
	return dataset.Uniform(n, dims, seed)
}

// LoadCSV reads records from "x,y,…" CSV lines (e.g. the real NE file after
// normalisation), clamping coordinates to [0,1].
func LoadCSV(r io.Reader) ([]Record, error) {
	return dataset.LoadCSV(r)
}

// WriteCSV writes records as CSV lines.
func WriteCSV(w io.Writer, records []Record) error {
	return dataset.WriteCSV(w, records)
}

// RestoreIndex rebuilds an index from an Index.Snapshot stream onto an
// empty substrate. It accepts the same options as New and they configure
// the restored index the same way; WithDims, if given, must match the
// snapshot.
func RestoreIndex(d DHT, r io.Reader, opts ...Option) (*Index, error) {
	return core.RestoreInto(d, r, index.Resolve(opts...))
}
