//go:build race

package hbase

// raceEnabled reports whether this binary was built with -race. Under the
// race detector sync.Pool deliberately drops a fraction of Puts, so
// allocation-count assertions on pooled objects only hold without it.
const raceEnabled = true
