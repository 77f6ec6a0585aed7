package hbase

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// TableDescriptor declares a table: its name, the column families (which
// HBase requires to be fixed up front, paper §IV-A), and how many versions
// of each cell to retain.
type TableDescriptor struct {
	Name        string
	Families    []string
	MaxVersions int // retained per cell; defaults to 1
}

// Validate checks the descriptor is well formed.
func (d *TableDescriptor) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("hbase: table name is empty")
	}
	if len(d.Families) == 0 {
		return fmt.Errorf("hbase: table %q declares no column families", d.Name)
	}
	seen := make(map[string]bool, len(d.Families))
	for _, f := range d.Families {
		if f == "" {
			return fmt.Errorf("hbase: table %q has an empty column family", d.Name)
		}
		if seen[f] {
			return fmt.Errorf("hbase: table %q repeats column family %q", d.Name, f)
		}
		seen[f] = true
	}
	return nil
}

// HasFamily reports whether the descriptor declares family f.
func (d *TableDescriptor) HasFamily(f string) bool {
	for _, fam := range d.Families {
		if fam == f {
			return true
		}
	}
	return false
}

func (d *TableDescriptor) maxVersions() int {
	if d.MaxVersions <= 0 {
		return 1
	}
	return d.MaxVersions
}

// RegionInfo identifies one region: a half-open row-key range
// [StartKey, EndKey) of a table, hosted by a region server. A nil StartKey
// means "from the beginning"; a nil EndKey means "to the end".
//
// Epoch is the region's ownership generation: the master bumps it on every
// reassignment (failover, drain, balance), and data RPCs routed with a stale
// epoch are rejected with ErrFenced so a cached location can never silently
// read or write through a superseded owner.
type RegionInfo struct {
	Table    string
	ID       string
	StartKey []byte
	EndKey   []byte
	Host     string
	Epoch    uint64
	// Replica numbers this copy of the region: 0 is the primary (the only
	// copy that accepts writes and Strong reads), 1..N-1 are read-only
	// secondaries serving timeline reads.
	Replica int
	// ReplicaHosts lists where the region's secondary copies live, indexed
	// by replica number minus one ("" = that slot is currently unplaced).
	// The master fills it on meta responses so clients can fail timeline
	// reads over without a second meta round trip; nil when the region is
	// unreplicated.
	ReplicaHosts []string
}

// ContainsRow reports whether row falls inside the region's range.
func (ri *RegionInfo) ContainsRow(row []byte) bool {
	if len(ri.StartKey) > 0 && bytes.Compare(row, ri.StartKey) < 0 {
		return false
	}
	if len(ri.EndKey) > 0 && bytes.Compare(row, ri.EndKey) >= 0 {
		return false
	}
	return true
}

// OverlapsRange reports whether the region intersects the half-open scan
// range [start, stop); nil bounds are unbounded.
func (ri *RegionInfo) OverlapsRange(start, stop []byte) bool {
	if len(ri.EndKey) > 0 && start != nil && bytes.Compare(start, ri.EndKey) >= 0 {
		return false
	}
	if len(ri.StartKey) > 0 && stop != nil && bytes.Compare(stop, ri.StartKey) <= 0 {
		return false
	}
	return true
}

// String renders the region for debugging.
func (ri *RegionInfo) String() string {
	return fmt.Sprintf("%s[%x,%x)@%s", ri.ID, ri.StartKey, ri.EndKey, ri.Host)
}

// WireSize implements rpc.Message for meta responses. The replica fields
// cost nothing when unset, keeping unreplicated clusters' wire accounting
// byte-identical to the pre-replica build.
func (ri *RegionInfo) WireSize() int {
	n := len(ri.Table) + len(ri.ID) + len(ri.StartKey) + len(ri.EndKey) + len(ri.Host) + 8
	if ri.Replica > 0 {
		n += 2
	}
	for _, h := range ri.ReplicaHosts {
		n += len(h) + 1
	}
	return n
}

// sortRegions orders regions by start key, the layout of the meta table.
func sortRegions(regions []RegionInfo) {
	sort.Slice(regions, func(i, j int) bool {
		a, b := regions[i].StartKey, regions[j].StartKey
		if len(a) == 0 {
			return len(b) != 0
		}
		if len(b) == 0 {
			return false
		}
		return bytes.Compare(a, b) < 0
	})
}

// RegionMap is an immutable snapshot of one table's regions, sorted by start
// key — the unit every client data path locates rows against. The client
// caches one per table and replaces it whole on refresh or invalidation, so
// a caller that groups a batch against one snapshot sees one consistent set
// of boundaries even while a concurrent caller invalidates the cache.
type RegionMap struct{ regions []RegionInfo }

// NewRegionMap wraps regions, which must be sorted by start key (the order
// meta responses arrive in). The map takes ownership of the slice.
func NewRegionMap(regions []RegionInfo) *RegionMap { return &RegionMap{regions: regions} }

// Regions returns the snapshot's regions in key order; callers must not
// modify them.
func (m *RegionMap) Regions() []RegionInfo { return m.regions }

// Locate returns the region holding row by binary search over start keys.
// ok is false when row lies outside every region.
func (m *RegionMap) Locate(row []byte) (ri *RegionInfo, ok bool) {
	i := sort.Search(len(m.regions), func(i int) bool { return bytes.Compare(m.regions[i].StartKey, row) > 0 }) - 1
	if i < 0 || !m.regions[i].ContainsRow(row) {
		return nil, false
	}
	return &m.regions[i], true
}

// ByID returns the snapshot's region with the given ID.
func (m *RegionMap) ByID(id string) (ri *RegionInfo, ok bool) {
	for i := range m.regions {
		if m.regions[i].ID == id {
			return &m.regions[i], true
		}
	}
	return nil, false
}

// regionGroup is one region's share of a batch: the items whose rows the
// region holds, in input order.
type regionGroup[T any] struct {
	Region *RegionInfo
	Items  []T
}

// groupByRegion partitions items by the region of m holding each item's row.
// Every item is located against this one snapshot, so a region receives all
// of the batch's items in its range together. Groups come back in region key
// order. It fails when some row lies outside every region. A first pass
// locates the items and counts each group's; the groups' Items are then
// cut from one slice of len(items), capacity-limited, so a batch costs one
// allocation for its items however its rows spread.
func groupByRegion[T any](m *RegionMap, items []T, row func(*T) []byte) ([]regionGroup[T], error) {
	var groups []regionGroup[T]
	var smallOf [16]int32
	var smallN [8]int
	of := smallOf[:0] // of[i] is the group of items[i]
	if len(items) > len(smallOf) {
		of = make([]int32, 0, len(items))
	}
	counts := smallN[:0] // counts[g] is how many items groups[g] gets
	for i := range items {
		r := row(&items[i])
		ri, ok := m.Locate(r)
		if !ok {
			return nil, fmt.Errorf("hbase: no region holds row %x", r)
		}
		// Scan back from the newest group: sorted input hits it at once.
		g := len(groups) - 1
		for g >= 0 && groups[g].Region != ri {
			g--
		}
		if g < 0 {
			groups = append(groups, regionGroup[T]{Region: ri})
			counts = append(counts, 0)
			g = len(groups) - 1
		}
		counts[g]++
		of = append(of, int32(g))
	}
	slab := make([]T, len(items))
	off := 0
	for g := range groups {
		groups[g].Items = slab[off : off : off+counts[g]]
		off += counts[g]
	}
	for i := range items {
		g := &groups[of[i]]
		g.Items = append(g.Items, items[i])
	}
	slices.SortFunc(groups, func(a, b regionGroup[T]) int { return bytes.Compare(a.Region.StartKey, b.Region.StartKey) })
	return groups, nil
}
