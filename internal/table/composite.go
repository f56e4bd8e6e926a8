package table

import (
	"fmt"
	"sort"
	"strings"

	"tierdb/internal/bptree"
	"tierdb/internal/delta"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// compositeKeyName canonicalizes a column list for the index registry.
func compositeKeyName(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// CreateCompositeIndex builds a DRAM-resident multi-column index over
// the main partition (cf. Hyrise's composite keys, paper Section IV).
// Keys are order-preserving byte encodings of the column tuple, stored
// in an ordinary B+-tree; like single-column indexes, composite indexes
// are never evicted and are rebuilt by Merge.
func (t *Table) CreateCompositeIndex(cols []int) error {
	if len(cols) < 2 {
		return fmt.Errorf("table %s: composite index needs >= 2 columns, got %d", t.name, len(cols))
	}
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return fmt.Errorf("table %s: composite index column %d out of range", t.name, c)
		}
		if seen[c] {
			return fmt.Errorf("table %s: composite index repeats column %d", t.name, c)
		}
		seen[c] = true
	}
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buildCompositeLocked(&led, cols)
}

func (t *Table) buildCompositeLocked(led *storage.Ledger, cols []int) error {
	tree := bptree.New(value.String)
	key := make([]value.Value, len(cols))
	for row := 0; row < t.mainRows; row++ {
		for i, c := range cols {
			v, err := t.mainValueLocked(led, row, c)
			if err != nil {
				return fmt.Errorf("table %s: build composite index: %w", t.name, err)
			}
			key[i] = v
		}
		enc, err := keyenc.EncodeString(key)
		if err != nil {
			return fmt.Errorf("table %s: encode composite key: %w", t.name, err)
		}
		tree.Insert(value.NewString(enc), uint32(row))
	}
	// Copy-on-write: pinned views may alias the current map.
	composites := make(map[string]compositeIndex, len(t.composites)+1)
	for k, v := range t.composites {
		composites[k] = v
	}
	composites[compositeKeyName(cols)] = compositeIndex{
		cols: append([]int(nil), cols...),
		tree: tree,
	}
	t.composites = composites
	return nil
}

// compositeIndex bundles the indexed columns with their tree.
type compositeIndex struct {
	cols []int
	tree *bptree.Tree
}

// LookupComposite returns the rows whose column tuple equals key, using
// the composite index over cols (which must have been created). It runs
// against a pinned View, so a concurrent merge swap cannot tear the
// lookup.
func (t *Table) LookupComposite(cols []int, key []value.Value, snapshot uint64, self uint64) ([]RowID, error) {
	v := t.Pin()
	defer v.Release()
	return v.LookupComposite(cols, key, snapshot, self)
}

// LookupComposite resolves a composite-key lookup in the View: the main
// partition via the composite B+-tree, then the frozen (if any) and
// active deltas by probing their first-column trees and verifying the
// remaining columns.
func (v *View) LookupComposite(cols []int, key []value.Value, snapshot mvcc.Timestamp, self mvcc.TxID) ([]RowID, error) {
	if len(key) != len(cols) {
		return nil, fmt.Errorf("table %s: composite key has %d values for %d columns", v.name, len(key), len(cols))
	}
	idx, ok := v.composites[compositeKeyName(cols)]
	if !ok {
		return nil, fmt.Errorf("table %s: no composite index on columns %v", v.name, cols)
	}
	enc, err := keyenc.EncodeString(key)
	if err != nil {
		return nil, err
	}
	var out []RowID
	for _, pos := range idx.tree.Lookup(value.NewString(enc)) {
		if v.mainVersions.Visible(int(pos), snapshot, self) {
			out = append(out, RowID(pos))
		}
	}
	probe := func(d *delta.Partition, base uint64, bound int) error {
		cand, err := d.ScanEqual(cols[0], key[0], snapshot, self, nil)
		if err != nil {
			return err
		}
		for _, pos := range cand {
			if int(pos) >= bound {
				continue // appended after the pin; see View.ActiveRows
			}
			match := true
			for i := 1; i < len(cols); i++ {
				val, err := d.Get(int(pos), cols[i])
				if err != nil {
					return err
				}
				if !val.Equal(key[i]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, base+uint64(pos))
			}
		}
		return nil
	}
	base := uint64(v.mainRows)
	if v.frozen != nil {
		if err := probe(v.frozen, base, v.frozenRows); err != nil {
			return nil, err
		}
		base += uint64(v.frozenRows)
	}
	if err := probe(v.active, base, v.activeRows); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// CompositeIndexes lists the column sets with composite indexes.
func (t *Table) CompositeIndexes() [][]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]int, 0, len(t.composites))
	for _, idx := range t.composites {
		out = append(out, append([]int(nil), idx.cols...))
	}
	sort.Slice(out, func(a, b int) bool {
		return compositeKeyName(out[a]) < compositeKeyName(out[b])
	})
	return out
}
