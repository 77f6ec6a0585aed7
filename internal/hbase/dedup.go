package hbase

// dedupWindow records, per writer, which sequence-stamped batches a region
// has applied, so a retried multi-put whose ack was lost is acknowledged
// again without re-applying — the server half of the exactly-once contract.
// Every write is stamped; a writer is one client, named by its coordination
// session, and every Put and mutator flush of that client shares its one
// sequence space.
//
// Durability mirrors the data it guards: the live window is rebuilt on crash
// recovery from the flush-time snapshot (carried with the store files, the
// way HBase persists max-seq-id metadata) plus the batch stamps on replayed
// WAL entries, so the window covers exactly the acknowledged history. A
// split copies the parent's window to both daughters: a regrouped retry's
// pieces are row-disjoint, so per-daughter dedup on the original stamp
// still applies each cell at most once.
type dedupWindow struct {
	writers map[string]*writerWindow
}

// writerWindow is one writer's applied-batch set with its low-water mark.
// low is the writer's own declaration — carried on every request it sends,
// and taken over every batch the client still has in flight, not only the
// request's own — that all sequences below it are resolved (acked, or
// abandoned with the error surfaced) and will never be retried. Stamps
// below low are pruned from seen, but has still answers true for them:
// pruning collapses history into the watermark instead of forgetting it, so
// the window stays exact for the writer's entire sequence space while
// holding only the in-flight tail in memory.
type writerWindow struct {
	low  uint64
	seen map[uint64]struct{}
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{writers: make(map[string]*writerWindow)}
}

func (d *dedupWindow) has(writer string, seq uint64) bool {
	if d == nil {
		return false
	}
	w := d.writers[writer]
	if w == nil {
		return false
	}
	if seq < w.low {
		// The writer declared every sequence below its low-water mark
		// resolved; a retry that still shows up must deduplicate, not
		// re-apply.
		return true
	}
	_, ok := w.seen[seq]
	return ok
}

// mark records an applied stamp. lowWater is the writer's low-water mark as
// claimed on the batch (0 when unknown, e.g. WAL replay or replica shipping):
// it advances the window monotonically and prunes stamps that fall below it.
// Unlike a fixed-size window, pruning is driven only by the writer's own
// resolved-up-to claim, so a retried batch can never out-age its stamp no
// matter how far it trails the writer's newest sequence.
func (d *dedupWindow) mark(writer string, seq, lowWater uint64) {
	w := d.writers[writer]
	if w == nil {
		w = &writerWindow{seen: make(map[uint64]struct{})}
		d.writers[writer] = w
	}
	w.seen[seq] = struct{}{}
	if lowWater > w.low {
		w.low = lowWater
		for s := range w.seen {
			if s < w.low {
				delete(w.seen, s)
			}
		}
	}
}

func (d *dedupWindow) clone() *dedupWindow {
	if d == nil {
		return newDedupWindow()
	}
	nd := newDedupWindow()
	for wr, w := range d.writers {
		nw := &writerWindow{low: w.low, seen: make(map[uint64]struct{}, len(w.seen))}
		for s := range w.seen {
			nw.seen[s] = struct{}{}
		}
		nd.writers[wr] = nw
	}
	return nd
}
