// Package sscg implements Secondary-Storage Column Groups: the
// row-oriented, uncompressed representation of evicted attributes
// (paper Section II-A). All attributes of a group are stored adjacent in
// fixed-width slots, so a full-width tuple reconstruction touches a
// single 4 KB page (or the minimal number of consecutive pages for rows
// wider than a page), trading space for point-access locality. Scans of
// an SSCG-placed attribute must read every page of the group, which is
// exactly the slowdown the column selection model avoids by keeping
// sequentially accessed columns in DRAM.
package sscg

import (
	"fmt"
	"sync"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// Group is an immutable row-oriented column group on secondary storage.
type Group struct {
	fields      []schema.Field
	offsets     []int
	rowWidth    int
	rows        int
	rowsPerPage int // > 0 when rows pack into single pages
	pagesPerRow int // > 1 when one row spans multiple pages
	pages       []storage.PageID
	store       storage.Store
	cache       *amm.Cache

	bufs sync.Pool
}

// Build encodes rows (each a slice of values matching fields) into
// pages of store. If cache is non-nil, reads go through it.
func Build(fields []schema.Field, rows [][]value.Value, store storage.Store, cache *amm.Cache) (*Group, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("sscg: no fields")
	}
	g := &Group{
		fields: append([]schema.Field(nil), fields...),
		store:  store,
		cache:  cache,
		rows:   len(rows),
	}
	g.offsets = make([]int, len(fields))
	for i, f := range fields {
		g.offsets[i] = g.rowWidth
		g.rowWidth += f.SlotWidth()
	}
	if g.rowWidth <= storage.PageSize {
		g.rowsPerPage = storage.PageSize / g.rowWidth
		g.pagesPerRow = 1
	} else {
		g.rowsPerPage = 0
		g.pagesPerRow = (g.rowWidth + storage.PageSize - 1) / storage.PageSize
	}
	g.bufs.New = func() any {
		b := make([]byte, storage.PageSize)
		return &b
	}

	if err := g.writeRows(rows); err != nil {
		// Return already-written pages to the freelist so an aborted
		// build (e.g. a storage fault mid-merge) leaks nothing; the
		// fault-injection tests assert the page count returns to its
		// pre-merge level. Best effort: the original error wins.
		if len(g.pages) > 0 {
			_, _ = storage.FreePages(store, g.pages)
		}
		return nil, err
	}
	return g, nil
}

// writeRows encodes and persists all rows.
func (g *Group) writeRows(rows [][]value.Value) error {
	rowBuf := make([]byte, g.rowWidth)
	page := make([]byte, storage.PageSize)
	inPage := 0
	flush := func() error {
		id, err := g.store.Allocate()
		if err != nil {
			return fmt.Errorf("sscg: allocate page: %w", err)
		}
		// Track the page before writing it: a failed write must still
		// reach the abort path's FreePages or the page leaks.
		g.pages = append(g.pages, id)
		if err := g.store.WritePage(id, page); err != nil {
			return fmt.Errorf("sscg: write page: %w", err)
		}
		for i := range page {
			page[i] = 0
		}
		inPage = 0
		return nil
	}
	for r, row := range rows {
		if len(row) != len(g.fields) {
			return fmt.Errorf("sscg: row %d has %d values, want %d", r, len(row), len(g.fields))
		}
		for f, v := range row {
			if v.Type() != g.fields[f].Type {
				return fmt.Errorf("sscg: row %d field %q: type %s, want %s", r, g.fields[f].Name, v.Type(), g.fields[f].Type)
			}
			slot := rowBuf[g.offsets[f] : g.offsets[f]+g.fields[f].SlotWidth()]
			if err := value.EncodeFixed(v, slot); err != nil {
				return fmt.Errorf("sscg: row %d field %q: %w", r, g.fields[f].Name, err)
			}
		}
		if g.pagesPerRow == 1 {
			copy(page[inPage*g.rowWidth:], rowBuf)
			inPage++
			if inPage == g.rowsPerPage {
				if err := flush(); err != nil {
					return err
				}
			}
		} else {
			// Spanning rows occupy pagesPerRow consecutive pages each.
			for off := 0; off < g.rowWidth; off += storage.PageSize {
				n := copy(page, rowBuf[off:])
				for i := n; i < len(page); i++ {
					page[i] = 0
				}
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if g.pagesPerRow == 1 && inPage > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fields returns the group's fields.
func (g *Group) Fields() []schema.Field {
	return append([]schema.Field(nil), g.fields...)
}

// FieldIndex returns the position of the named field within the group,
// or -1.
func (g *Group) FieldIndex(name string) int {
	for i, f := range g.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Rows returns the number of rows.
func (g *Group) Rows() int { return g.rows }

// RowWidth returns the fixed row width in bytes.
func (g *Group) RowWidth() int { return g.rowWidth }

// PageCount returns the number of 4 KB pages the group occupies.
func (g *Group) PageCount() int { return len(g.pages) }

// Bytes returns the secondary-storage footprint.
func (g *Group) Bytes() int64 { return int64(len(g.pages)) * storage.PageSize }

// PagesPerReconstruction returns how many page accesses one full-width
// tuple reconstruction needs (the paper's headline: 1 for tables up to
// a page wide).
func (g *Group) PagesPerReconstruction() int { return g.pagesPerRow }

// RowsPerPage returns how many rows share one 4 KB page (0 when a row
// spans multiple pages). Parallel scans align their morsel boundaries
// to it so no page is read by two workers.
func (g *Group) RowsPerPage() int { return g.rowsPerPage }

// Free invalidates the group's pages in the cache and returns them to
// the store's freelist (a no-op for stores without storage.PageFreer).
// Call it only once no reader can touch the group again: the online merge
// frees a retired main partition's group when the last pinned table
// view referencing it is released, and a failed rebuild frees the
// partially built group it abandons.
func (g *Group) Free() error {
	if len(g.pages) == 0 {
		return nil
	}
	if g.cache != nil {
		g.cache.Invalidate(g.pages)
	}
	_, err := storage.FreePages(g.store, g.pages)
	return err
}

// readPage fetches a page via the cache (if configured) or the store,
// passing the content to fn, and counts a page read in led (may be nil)
// when the page came from the device rather than the cache. The content is only valid during
// fn.
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

// checkRow validates a row index.
func (g *Group) checkRow(row int) error {
	if row < 0 || row >= g.rows {
		return fmt.Errorf("sscg: row %d out of range (%d rows)", row, g.rows)
	}
	return nil
}

// checkField validates a field index.
func (g *Group) checkField(field int) error {
	if field < 0 || field >= len(g.fields) {
		return fmt.Errorf("sscg: field %d out of range (%d fields)", field, len(g.fields))
	}
	return nil
}

// ReadRow reconstructs the full row without counting its page reads;
// it is FetchRow for callers that keep no ledger.
func (g *Group) ReadRow(row int) ([]value.Value, error) { return g.FetchRow(nil, row) }

// FetchRow reconstructs the full row: a single page access for packed
// layouts, pagesPerRow consecutive accesses for spanning layouts. Every
// ledger-taking read counts its device page reads in led (nil counts
// nothing).
func (g *Group) FetchRow(led *storage.Ledger, row int) ([]value.Value, error) {
	if err := g.checkRow(row); err != nil {
		return nil, err
	}
	rowBytes := make([]byte, g.rowWidth)
	if g.pagesPerRow == 1 {
		pageIdx := row / g.rowsPerPage
		off := (row % g.rowsPerPage) * g.rowWidth
		err := g.readPage(led, g.pages[pageIdx], func(data []byte) error {
			copy(rowBytes, data[off:off+g.rowWidth])
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		base := row * g.pagesPerRow
		for p := 0; p < g.pagesPerRow; p++ {
			off := p * storage.PageSize
			err := g.readPage(led, g.pages[base+p], func(data []byte) error {
				copy(rowBytes[off:], data)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return g.decodeRow(rowBytes)
}

// decodeRow parses a row buffer into values.
func (g *Group) decodeRow(rowBytes []byte) ([]value.Value, error) {
	out := make([]value.Value, len(g.fields))
	for f, fd := range g.fields {
		v, err := value.DecodeFixed(fd.Type, rowBytes[g.offsets[f]:g.offsets[f]+fd.SlotWidth()])
		if err != nil {
			return nil, fmt.Errorf("sscg: decode field %q: %w", fd.Name, err)
		}
		out[f] = v
	}
	return out, nil
}

// ReadField reads a single field of a row, touching only the page(s)
// covering its slot.
func (g *Group) ReadField(led *storage.Ledger, row, field int) (value.Value, error) {
	if err := g.checkRow(row); err != nil {
		return value.Value{}, err
	}
	if err := g.checkField(field); err != nil {
		return value.Value{}, err
	}
	fd := g.fields[field]
	slot := make([]byte, fd.SlotWidth())
	if g.pagesPerRow == 1 {
		pageIdx := row / g.rowsPerPage
		off := (row%g.rowsPerPage)*g.rowWidth + g.offsets[field]
		err := g.readPage(led, g.pages[pageIdx], func(data []byte) error {
			copy(slot, data[off:off+len(slot)])
			return nil
		})
		if err != nil {
			return value.Value{}, err
		}
	} else {
		base := row * g.pagesPerRow
		start := g.offsets[field]
		for got := 0; got < len(slot); {
			pageIdx := (start + got) / storage.PageSize
			pageOff := (start + got) % storage.PageSize
			n := min(len(slot)-got, storage.PageSize-pageOff)
			err := g.readPage(led, g.pages[base+pageIdx], func(data []byte) error {
				copy(slot[got:got+n], data[pageOff:pageOff+n])
				return nil
			})
			if err != nil {
				return value.Value{}, err
			}
			got += n
		}
	}
	return value.DecodeFixed(fd.Type, slot)
}

// Scan evaluates pred against every row's field, appending matching
// positions to out; skip (may be nil) masks rows. It reads every page of
// the group once — the expensive path the placement model avoids — and
// counts no page reads: it is ScanRows over all rows without a ledger.
func (g *Group) Scan(field int, pred func(value.Value) bool, out []uint32, skip func(int) bool) ([]uint32, error) {
	return g.ScanRows(nil, field, pred, 0, g.rows, out, skip)
}

// ScanRows evaluates pred against rows in [rowLo, rowHi), appending
// matching positions to out in ascending row order. Morsel-driven
// parallel scans call it with disjoint row ranges; ranges aligned to
// RowsPerPage boundaries read every covered page exactly once.
func (g *Group) ScanRows(led *storage.Ledger, field int, pred func(value.Value) bool, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	if err := g.checkField(field); err != nil {
		return nil, err
	}
	if rowLo < 0 {
		rowLo = 0
	}
	if rowHi > g.rows {
		rowHi = g.rows
	}
	if rowLo >= rowHi {
		return out, nil
	}
	fd := g.fields[field]
	if g.pagesPerRow == 1 {
		for pageIdx := rowLo / g.rowsPerPage; pageIdx <= (rowHi-1)/g.rowsPerPage; pageIdx++ {
			first := pageIdx * g.rowsPerPage
			lo := max(first, rowLo)
			hi := min(first+g.rowsPerPage, rowHi)
			err := g.readPage(led, g.pages[pageIdx], func(data []byte) error {
				for row := lo; row < hi; row++ {
					if skip != nil && skip(row) {
						continue
					}
					off := (row-first)*g.rowWidth + g.offsets[field]
					v, err := value.DecodeFixed(fd.Type, data[off:off+fd.SlotWidth()])
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
	for row := rowLo; row < rowHi; row++ {
		if skip != nil && skip(row) {
			continue
		}
		v, err := g.ReadField(led, row, field)
		if err != nil {
			return nil, err
		}
		if pred(v) {
			out = append(out, uint32(row))
		}
	}
	return out, nil
}

// Probe evaluates pred at the given candidate positions only, appending
// matches to out (point accesses, one page read per candidate).
func (g *Group) Probe(led *storage.Ledger, field int, pred func(value.Value) bool, candidates []uint32, out []uint32) ([]uint32, error) {
	if err := g.checkField(field); err != nil {
		return nil, err
	}
	for _, pos := range candidates {
		v, err := g.ReadField(led, int(pos), field)
		if err != nil {
			return nil, err
		}
		if pred(v) {
			out = append(out, pos)
		}
	}
	return out, nil
}
