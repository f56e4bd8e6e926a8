// Package dsm implements the alternative secondary-storage format the
// paper deliberately decides against (Sections I-B and II-A): a
// disk-resident decomposed storage model (DSM), where every evicted
// attribute is stored in its own run of pages. Scanning one attribute
// touches only that attribute's pages (W times less IO than the
// row-oriented SSCG for a W-attribute group), but a full-width tuple
// reconstruction needs one page access per attribute — the
// "disastrous" case the paper's SSCG design avoids. The package exists
// as a first-class comparator for the format ablation in bench_test.go.
package dsm

import (
	"fmt"
	"sync"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// Group is an immutable columnar (DSM) group on secondary storage.
type Group struct {
	fields       []schema.Field
	rows         int
	slotsPerPage []int              // per field
	pages        [][]storage.PageID // per field, page run
	store        storage.Store
	cache        *amm.Cache
	bufs         sync.Pool
}

// Build encodes rows column-by-column into per-field page runs.
func Build(fields []schema.Field, rows [][]value.Value, store storage.Store, cache *amm.Cache) (*Group, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("dsm: no fields")
	}
	g := &Group{
		fields: append([]schema.Field(nil), fields...),
		rows:   len(rows),
		store:  store,
		cache:  cache,
	}
	g.bufs.New = func() any {
		b := make([]byte, storage.PageSize)
		return &b
	}
	g.slotsPerPage = make([]int, len(fields))
	g.pages = make([][]storage.PageID, len(fields))
	page := make([]byte, storage.PageSize)
	for f, fd := range fields {
		slot := fd.SlotWidth()
		if slot > storage.PageSize {
			return nil, fmt.Errorf("dsm: field %q slot width %d exceeds page size", fd.Name, slot)
		}
		per := storage.PageSize / slot
		g.slotsPerPage[f] = per
		inPage := 0
		for i := range page {
			page[i] = 0
		}
		flush := func() error {
			id, err := store.Allocate()
			if err != nil {
				return fmt.Errorf("dsm: allocate page: %w", err)
			}
			if err := store.WritePage(id, page); err != nil {
				return fmt.Errorf("dsm: write page: %w", err)
			}
			g.pages[f] = append(g.pages[f], id)
			for i := range page {
				page[i] = 0
			}
			inPage = 0
			return nil
		}
		for r, row := range rows {
			if len(row) != len(fields) {
				return nil, fmt.Errorf("dsm: row %d has %d values, want %d", r, len(row), len(fields))
			}
			v := row[f]
			if v.Type() != fd.Type {
				return nil, fmt.Errorf("dsm: row %d field %q: type %s, want %s", r, fd.Name, v.Type(), fd.Type)
			}
			if err := value.EncodeFixed(v, page[inPage*slot:(inPage+1)*slot]); err != nil {
				return nil, fmt.Errorf("dsm: row %d field %q: %w", r, fd.Name, err)
			}
			inPage++
			if inPage == per {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if inPage > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Rows returns the number of rows.
func (g *Group) Rows() int { return g.rows }

// Fields returns the group's fields.
func (g *Group) Fields() []schema.Field {
	return append([]schema.Field(nil), g.fields...)
}

// PageCount returns the total pages across all field runs.
func (g *Group) PageCount() int {
	n := 0
	for _, run := range g.pages {
		n += len(run)
	}
	return n
}

// FieldPageCount returns the pages of one field's run.
func (g *Group) FieldPageCount(field int) int {
	if field < 0 || field >= len(g.pages) {
		return 0
	}
	return len(g.pages[field])
}

// PagesPerReconstruction returns the page accesses a full-width tuple
// reconstruction needs: one per attribute (the DSM weakness).
func (g *Group) PagesPerReconstruction() int { return len(g.fields) }

// readPage passes a page's content to fn, counting a device read in led
// (may be nil) unless the cache served it, exactly like the SSCG.
func (g *Group) readPage(led *storage.Ledger, id storage.PageID, fn func(data []byte) error) error {
	if g.cache != nil {
		data, hit, err := g.cache.Get(id)
		if err != nil {
			return err
		}
		if !hit && led != nil {
			led.PageReads++
		}
		defer g.cache.Release(id)
		return fn(data)
	}
	bufp := g.bufs.Get().(*[]byte)
	defer g.bufs.Put(bufp)
	if err := g.store.ReadPage(id, *bufp); err != nil {
		return err
	}
	if led != nil {
		led.PageReads++
	}
	return fn(*bufp)
}

// ReadField reads one cell: a single page access within the field's
// run.
func (g *Group) ReadField(led *storage.Ledger, row, field int) (value.Value, error) {
	if row < 0 || row >= g.rows {
		return value.Value{}, fmt.Errorf("dsm: row %d out of range (%d)", row, g.rows)
	}
	if field < 0 || field >= len(g.fields) {
		return value.Value{}, fmt.Errorf("dsm: field %d out of range (%d)", field, len(g.fields))
	}
	fd := g.fields[field]
	per := g.slotsPerPage[field]
	slot := fd.SlotWidth()
	pageIdx := row / per
	off := (row % per) * slot
	var out value.Value
	err := g.readPage(led, g.pages[field][pageIdx], func(data []byte) error {
		v, err := value.DecodeFixed(fd.Type, data[off:off+slot])
		out = v
		return err
	})
	return out, err
}

// ReadRow reconstructs a full row: one page access per attribute.
func (g *Group) ReadRow(led *storage.Ledger, row int) ([]value.Value, error) {
	if row < 0 || row >= g.rows {
		return nil, fmt.Errorf("dsm: row %d out of range (%d)", row, g.rows)
	}
	out := make([]value.Value, len(g.fields))
	for f := range g.fields {
		v, err := g.ReadField(led, row, f)
		if err != nil {
			return nil, err
		}
		out[f] = v
	}
	return out, nil
}

// Scan evaluates pred over one field, touching only that field's page
// run (the DSM strength).
func (g *Group) Scan(led *storage.Ledger, field int, pred func(value.Value) bool, out []uint32, skip func(int) bool) ([]uint32, error) {
	if field < 0 || field >= len(g.fields) {
		return nil, fmt.Errorf("dsm: field %d out of range (%d)", field, len(g.fields))
	}
	fd := g.fields[field]
	per := g.slotsPerPage[field]
	slot := fd.SlotWidth()
	for pageIdx, id := range g.pages[field] {
		first := pageIdx * per
		n := min(per, g.rows-first)
		if n <= 0 {
			break
		}
		err := g.readPage(led, id, func(data []byte) error {
			for i := 0; i < n; i++ {
				row := first + i
				if skip != nil && skip(row) {
					continue
				}
				v, err := value.DecodeFixed(fd.Type, data[i*slot:(i+1)*slot])
				if err != nil {
					return err
				}
				if pred(v) {
					out = append(out, uint32(row))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
