package engine

import (
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/sql"
)

// maxPlanTemplates bounds a session's plan cache. Templates are per query
// shape, not per query text, so a workload's point lookups share one.
const maxPlanTemplates = 256

// template is one query shape's prepared plan: the plans Session.SQL
// would build and optimize for it, with slotted literals that plan.Bind
// rebinds to each query's values, the fingerprint every query of the
// shape shares, and, once the shape has run, its prepared physical plan.
// Templates are shared by every goroutine running the shape and never
// handed out, only bound copies.
type template struct {
	built plan.LogicalPlan // as sql.Build returns it: LogicalPlan(), derived frames, views
	opt   plan.LogicalPlan // as plan.Optimize returns it: what actions compile
	fp    string
	shape string
	// labels is the pprof label set executions of the shape run under.
	labels pprof.LabelSet
	// phys is set by the shape's first successful compile and never
	// changes after.
	phys atomic.Pointer[exec.Prepared]
}

// compile returns the physical plan for one execution of the template
// with vals. The first execution prepares the template's physical plan
// while compiling its own; later ones bind it, which plans only the scans,
// and compile the bound logical plan when the prepared plan cannot take
// the template's literals or these values (exec.Prepared.Bind).
func (t *template) compile(vals []any, cfg exec.CompileConfig) (exec.PhysicalPlan, error) {
	if pp := t.phys.Load(); pp != nil {
		if phys, ok, err := pp.Bind(vals); ok || err != nil {
			return phys, err
		}
		return exec.CompileWith(plan.Bind(t.opt, vals), cfg)
	}
	pp, phys, err := exec.Prepare(plan.Bind(t.opt, vals), cfg)
	if err == nil {
		t.phys.CompareAndSwap(nil, pp)
	}
	return phys, err
}

// planCache maps a normalized query key (sql.Normalized.Key) to its
// template, or to nil for a shape known not to be cacheable. A catalog
// change empties it and bumps its version; a template built against an
// older version is not stored.
type planCache struct {
	mu      sync.Mutex
	version uint64
	entries map[string]*template
}

// lookup returns the entry for key, whether there is one, and the catalog
// version to store a new entry under.
func (c *planCache) lookup(key []byte) (t *template, ok bool, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok = c.entries[string(key)]
	return t, ok, c.version
}

// store records key's entry if the catalog is still at version. A full
// cache drops an arbitrary entry first.
func (c *planCache) store(key []byte, t *template, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*template)
	}
	if _, ok := c.entries[string(key)]; !ok && len(c.entries) >= maxPlanTemplates {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[string(key)] = t
}

// invalidate drops every entry and bumps the version, returning how many
// templates it dropped.
func (c *planCache) invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	n := 0
	for _, t := range c.entries {
		if t != nil {
			n++
		}
	}
	clear(c.entries)
	return n
}

// catalogChanged invalidates the plan cache after a catalog write.
func (s *Session) catalogChanged() {
	if n := s.plans.invalidate(); n > 0 {
		s.meter.Add(metrics.PlanCacheInvalidations, int64(n))
	}
}

// sqlFrame is Session.SQL without the timing: a hit binds the shape's
// template to the query's literals; a miss builds the query, then tries
// to prepare a template from it; an uncacheable shape, or a query whose
// literals do not bind, takes the full path, which fails exactly as an
// uncached build does.
func (s *Session) sqlFrame(query string) (*DataFrame, error) {
	n, err := sql.Normalize(query)
	if err != nil {
		return nil, err
	}
	defer n.Release()
	t, known, version := s.plans.lookup(n.Key())
	if t != nil {
		if vals, err := n.Values(); err == nil {
			s.meter.Inc(metrics.PlanCacheHits)
			return &DataFrame{sess: s, tmpl: t, vals: vals}, nil
		}
	}
	if known {
		s.meter.Inc(metrics.PlanCacheUncacheable)
	} else {
		s.meter.Inc(metrics.PlanCacheMisses)
	}
	lp, err := n.Build(s.resolve)
	if err != nil {
		return nil, err
	}
	if known {
		return &DataFrame{sess: s, lp: lp}, nil
	}
	t = s.prepare(n, lp)
	s.plans.store(n.Key(), t, version)
	if t == nil {
		return &DataFrame{sess: s, lp: lp}, nil
	}
	vals, _ := n.Values() // the build read them
	return &DataFrame{sess: s, tmpl: t, vals: vals}, nil
}

// prepare makes a template from a freshly built query, or returns nil
// when the shape cannot be one. Every literal must reach the optimized
// plan through its slot: none may be folded away, consumed by the
// builder (COUNT(1)) or unslotted (aggregate clauses). And the literals'
// values must not shape the plan: rebuilt with every slot set to a
// distinct sentinel, the query must give plans of the same shape, the same
// output names and types, and the same slots. Default column names that
// render a literal (SELECT k + 1) fail that test, as do values that decide
// structure through their rendering.
func (s *Session) prepare(n *sql.Normalized, lp plan.LogicalPlan) *template {
	opt := plan.Optimize(lp)
	want := make([]int, n.NumSlots())
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(plan.Slots(opt), want) {
		return nil
	}
	sn, err := n.Sentinels()
	if err != nil {
		return nil
	}
	slp, err := sn.Build(s.resolve)
	if err != nil {
		return nil
	}
	sopt := plan.Optimize(slp)
	fp, shape := plan.Fingerprint(opt)
	if plan.Shape(sopt) != shape || plan.Shape(slp) != plan.Shape(lp) ||
		!slices.Equal(opt.Schema(), sopt.Schema()) || !slices.Equal(plan.Slots(sopt), want) {
		return nil
	}
	return &template{built: lp, opt: opt, fp: fp, shape: shape, labels: fingerprintLabels(fp)}
}
