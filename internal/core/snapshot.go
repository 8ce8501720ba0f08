package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mlight/internal/bitlabel"
	"mlight/internal/dht"
	"mlight/internal/index"
	"mlight/internal/spatial"
)

// Snapshot / RestoreInto provide whole-index persistence (an operational
// extension beyond the paper): every bucket is streamed out in a compact
// binary framing so an index can be checkpointed to disk and rebuilt on a
// fresh substrate. The format is self-describing: magic, version,
// dimensionality, bucket count, then one length-prefixed bucket frame
// each. Restoration validates the structure — labels must extend the root
// and form an antichain (no bucket may be an ancestor of another), records
// must lie inside their bucket's cell — so a corrupted snapshot is
// rejected rather than silently producing a broken index.

const (
	snapshotMagic   = "MLIGHTSNAP"
	snapshotVersion = 1
	// maxSnapshotBuckets bounds the declared bucket count (DoS guard).
	maxSnapshotBuckets = 1 << 26
)

// ErrSnapshot reports a malformed or incompatible snapshot stream.
var ErrSnapshot = errors.New("core: invalid snapshot")

// Snapshot writes every bucket of the index to w. It requires an
// enumerable substrate. The snapshot is a consistent copy only if the
// index is quiescent while it runs.
func (ix *Index) Snapshot(w io.Writer) error {
	buckets, err := ix.Buckets()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	header := make([]byte, 0, 16)
	header = binary.AppendUvarint(header, snapshotVersion)
	header = binary.AppendUvarint(header, uint64(ix.opts.Dims))
	header = binary.AppendUvarint(header, uint64(len(buckets)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	for _, b := range buckets {
		frame := b.Marshal()
		var size [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(size[:], uint64(len(frame)))
		if _, err := bw.Write(size[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// RestoreInto rebuilds an index from a snapshot onto the substrate d,
// which must not already hold index buckets. t.Dims, if set, must match
// the snapshot's dimensionality; the remaining fields configure the
// restored index exactly as they would New's (so a restore may change, say,
// the splitting strategy).
func RestoreInto(d dht.DHT, r io.Reader, t index.Tuning) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSnapshot, version)
	}
	dims64, err := binary.ReadUvarint(br)
	if err != nil || dims64 < 1 || dims64 > 16 {
		return nil, fmt.Errorf("%w: dimensionality %d", ErrSnapshot, dims64)
	}
	dims := int(dims64)
	if t.Dims != 0 && t.Dims != dims {
		return nil, fmt.Errorf("%w: snapshot is %d-dimensional, options say %d", ErrSnapshot, dims, t.Dims)
	}
	t.Dims = dims
	ix, err := attach(d, t)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil || count > maxSnapshotBuckets {
		return nil, fmt.Errorf("%w: bucket count", ErrSnapshot)
	}

	buckets := make([]Bucket, 0, min(count, 1<<16))
	labels := make(map[bitlabel.Label]bool, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		size, err := binary.ReadUvarint(br)
		if err != nil || size > 1<<30 {
			return nil, fmt.Errorf("%w: bucket %d frame size", ErrSnapshot, i)
		}
		frame := make([]byte, size)
		if _, err := io.ReadFull(br, frame); err != nil {
			return nil, fmt.Errorf("%w: bucket %d truncated", ErrSnapshot, i)
		}
		b, err := restoreBucket(frame, dims)
		if err != nil {
			return nil, fmt.Errorf("bucket %d: %w", i, err)
		}
		if labels[b.Label] {
			return nil, fmt.Errorf("%w: duplicate bucket label %v", ErrSnapshot, b.Label)
		}
		labels[b.Label] = true
		buckets = append(buckets, b)
	}
	// Structural validation: the labels must form an antichain of cells
	// (no bucket an ancestor of another) so lookups terminate uniquely.
	for l := range labels {
		for p := l; p.Len() > dims+1; {
			p = p.Parent()
			if labels[p] {
				return nil, fmt.Errorf("%w: bucket %v is an ancestor of bucket %v", ErrSnapshot, p, l)
			}
		}
	}

	if n, err := ix.Size(); err == nil && n > 0 {
		return nil, fmt.Errorf("core: RestoreInto requires an empty substrate, found %d records", n)
	}
	for _, b := range buckets {
		if err := ix.raw.Put(labelKey(bitlabel.Name(b.Label, dims)), b); err != nil {
			return nil, fmt.Errorf("core: restore bucket %v: %w", b.Label, err)
		}
	}
	if len(buckets) == 0 {
		// Empty snapshot: bootstrap a fresh root.
		root := bitlabel.Root(dims)
		if err := ix.raw.Put(labelKey(bitlabel.Name(root, dims)), Bucket{Label: root}); err != nil {
			return nil, fmt.Errorf("core: restore root: %w", err)
		}
	}
	return ix, nil
}

// restoreBucket decodes one bucket frame and checks what the shared
// decoder cannot know: that the bucket belongs to an index of this
// dimensionality — its label extends the root, its records lie in its cell.
func restoreBucket(frame []byte, dims int) (Bucket, error) {
	b, err := UnmarshalBucket(frame)
	if err != nil {
		return Bucket{}, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if !bitlabel.Root(dims).IsPrefixOf(b.Label) {
		return Bucket{}, fmt.Errorf("%w: label %v does not extend the root", ErrSnapshot, b.Label)
	}
	region, err := spatial.RegionOf(b.Label, dims)
	if err != nil {
		return Bucket{}, fmt.Errorf("%w: label %v: %v", ErrSnapshot, b.Label, err)
	}
	if b.Load() > 0 && b.rs.dims != dims {
		return Bucket{}, fmt.Errorf("%w: %d-dimensional records in bucket %v", ErrSnapshot, b.rs.dims, b.Label)
	}
	for i, n := 0, b.Load(); i < n; i++ {
		if key := b.KeyAt(i); !key.Valid() || !region.Contains(key) {
			return Bucket{}, fmt.Errorf("%w: record %d outside its bucket cell", ErrSnapshot, i)
		}
	}
	return b, nil
}
