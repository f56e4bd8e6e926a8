package storage

import (
	"time"

	"tierdb/internal/device"
)

// DRAMTouch is the modeled cost of one dependent random DRAM access (a
// cache miss).
const DRAMTouch = 60 * time.Nanosecond

// Ledger counts what one unit of work — a query, a parallel worker, a
// merge, a point lookup — asked of the memory hierarchy. It holds plain
// integers: each ledger has one owner goroutine, so counting a page
// costs no atomic and no shared cache line. Price turns a finished
// ledger into modeled time; nothing else applies device or DRAM
// latencies and bandwidths.
type Ledger struct {
	// Workers is the number of morsel-balanced workers the counted work
	// was split across, each one access stream; 0 or 1 marks serial
	// work, which runs at the device's configured stream count.
	Workers int
	// PageReads counts 4 KB page reads that reached the device (AMM
	// cache hits are free).
	PageReads int64
	// PageWrites counts 4 KB page writes.
	PageWrites int64
	// Touches counts dependent random DRAM accesses.
	Touches int64
	// SeqStreams counts sequential DRAM read streams, which together
	// read SeqBytes, split evenly.
	SeqStreams int64
	SeqBytes   int64
}

// Add folds o's counts into l; l keeps its Workers.
func (l *Ledger) Add(o Ledger) {
	l.PageReads += o.PageReads
	l.PageWrites += o.PageWrites
	l.Touches += o.Touches
	l.SeqStreams += o.SeqStreams
	l.SeqBytes += o.SeqBytes
}

// Cost is a priced ledger.
type Cost struct {
	Read, Write, DRAM time.Duration
}

// Device returns the secondary-storage share of the cost.
func (c Cost) Device() time.Duration { return c.Read + c.Write }

// Price turns a ledger into modeled time on dev, the one place device
// and DRAM latencies and bandwidths are applied. Serial work runs at
// `threads` concurrent access streams. A parallel ledger runs one stream
// per worker, and its cost is the phase's modeled wall-clock: each term
// divided by the worker count, rounded up — the slowest worker's share
// under balanced morsel scheduling. Reads, writes and touches are
// linear at a fixed stream count, so a summed ledger prices exactly like
// its parts; each sequential stream is priced on its own. A zero dev (an
// untimed store) prices device work at zero.
func Price(dev device.Profile, threads int, l Ledger) Cost {
	streams, workers := max(threads, 1), time.Duration(1)
	if l.Workers > 1 {
		streams, workers = l.Workers, time.Duration(l.Workers)
	}
	var c Cost
	if dev.ReadLatency > 0 {
		c.Read = time.Duration(l.PageReads) * dev.RandomReadTime(1, streams)
		c.Write = time.Duration(l.PageWrites) * dev.WriteLatency
	}
	c.DRAM = time.Duration(l.Touches) * DRAMTouch
	if l.SeqStreams > 0 {
		c.DRAM += time.Duration(l.SeqStreams) * device.DRAM.SequentialReadTime(l.SeqBytes/l.SeqStreams, streams)
	}
	share := func(d time.Duration) time.Duration { return (d + workers - 1) / workers }
	return Cost{Read: share(c.Read), Write: share(c.Write), DRAM: share(c.DRAM)}
}

// Charge settles a finished ledger against store: a TimedStore prices
// it on its device and books it once into its clock and device.*
// instruments; any other store prices the DRAM work alone. The cost is
// returned for the caller's own records (the DRAM share is the
// caller's to book).
func Charge(store Store, l Ledger) Cost {
	if ts, ok := store.(*TimedStore); ok {
		return ts.charge(l)
	}
	return Price(device.Profile{}, 1, l)
}
