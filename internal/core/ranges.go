package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"github.com/shc-go/shc/internal/bytesutil"
)

// RowRange is a half-open range [Start, Stop) of encoded row keys; a nil
// bound is unbounded. The empty flag distinguishes "no rows can match"
// from "everything".
type RowRange struct {
	Start, Stop []byte
}

// fullRange matches every row.
func fullRange() RowRange { return RowRange{} }

// isFull reports whether the range is unbounded on both sides.
func (r RowRange) isFull() bool { return r.Start == nil && r.Stop == nil }

// isEmpty reports whether no key can fall in the range.
func (r RowRange) isEmpty() bool {
	return r.Start != nil && r.Stop != nil && bytes.Compare(r.Start, r.Stop) >= 0
}

// contains reports whether key falls inside the range.
func (r RowRange) contains(key []byte) bool {
	if r.Start != nil && bytes.Compare(key, r.Start) < 0 {
		return false
	}
	if r.Stop != nil && bytes.Compare(key, r.Stop) >= 0 {
		return false
	}
	return true
}

// String renders the range.
func (r RowRange) String() string { return fmt.Sprintf("[%x,%x)", r.Start, r.Stop) }

// intersectRanges computes r ∩ s, merging the bounds the way the paper's
// §VI-A.5 merges conjunctive range predicates (t ∈ [a,b] ∩ [c,d] → [c,b]).
func intersectRanges(r, s RowRange) RowRange {
	out := RowRange{Start: r.Start, Stop: r.Stop}
	if s.Start != nil && (out.Start == nil || bytes.Compare(s.Start, out.Start) > 0) {
		out.Start = s.Start
	}
	if s.Stop != nil && (out.Stop == nil || bytes.Compare(s.Stop, out.Stop) < 0) {
		out.Stop = s.Stop
	}
	return out
}

// RangeSet is a union of disjoint, sorted ranges over encoded row keys.
// The zero value is the empty set; use fullSet() for "everything".
type RangeSet struct {
	ranges []RowRange
}

// fullRanges backs every full set; sets are never mutated in place.
var fullRanges = []RowRange{fullRange()}

// fullSet matches every row.
func fullSet() RangeSet { return RangeSet{ranges: fullRanges} }

// emptySet matches nothing.
func emptySet() RangeSet { return RangeSet{} }

// pointSet matches exactly the given encoded keys.
func pointSet(keys ...[]byte) RangeSet {
	rs := make([]RowRange, len(keys))
	for i, k := range keys {
		rs[i] = RowRange{Start: k, Stop: bytesutil.Successor(k)}
	}
	return normalize(rs)
}

// prefixSet matches every key beginning with one of prefixes.
func prefixSet(prefixes ...[]byte) RangeSet {
	rs := make([]RowRange, len(prefixes))
	for i, p := range prefixes {
		rs[i] = RowRange{Start: p, Stop: bytesutil.PrefixSuccessor(p)}
	}
	return normalize(rs)
}

// IsEmpty reports whether the set matches nothing.
func (s RangeSet) IsEmpty() bool { return len(s.ranges) == 0 }

// IsFull reports whether the set matches everything.
func (s RangeSet) IsFull() bool {
	return len(s.ranges) == 1 && s.ranges[0].isFull()
}

// Ranges returns the disjoint ranges in ascending order.
func (s RangeSet) Ranges() []RowRange { return s.ranges }

// Contains reports whether key falls in the set. It binary-searches the
// sorted ranges — the "binary search is used to merge the lower bound and
// upper bound" machinery of §VI-A.5 in query form.
func (s RangeSet) Contains(key []byte) bool {
	i := sort.Search(len(s.ranges), func(i int) bool {
		r := s.ranges[i]
		return r.Stop == nil || bytes.Compare(key, r.Stop) < 0
	})
	return i < len(s.ranges) && s.ranges[i].contains(key)
}

// Intersect computes the set intersection (predicates ANDed together).
func (s RangeSet) Intersect(o RangeSet) RangeSet {
	switch {
	case s.IsFull():
		return o
	case o.IsFull():
		return s
	}
	var out []RowRange
	for _, a := range s.ranges {
		for _, b := range o.ranges {
			m := intersectRanges(a, b)
			if !m.isEmpty() {
				out = append(out, m)
			}
		}
	}
	return normalize(out)
}

// Union computes the set union (predicates ORed together), merging
// overlapping and adjacent ranges (t ∈ [a,b] ∪ [c,d] → [a,d] when they
// touch).
func (s RangeSet) Union(o RangeSet) RangeSet {
	return normalize(append(append([]RowRange{}, s.ranges...), o.ranges...))
}

// normalize sorts ranges and merges overlaps, keeping the set canonical.
// It reuses in, which the caller gives up.
func normalize(in []RowRange) RangeSet {
	rs := in[:0]
	for _, r := range in {
		if !r.isEmpty() {
			rs = append(rs, r)
		}
	}
	switch len(rs) {
	case 0:
		return emptySet()
	case 1:
		return RangeSet{ranges: rs}
	}
	slices.SortFunc(rs, func(x, y RowRange) int {
		switch {
		case x.Start == nil && y.Start == nil:
			return 0
		case x.Start == nil:
			return -1
		case y.Start == nil:
			return 1
		}
		return bytes.Compare(x.Start, y.Start)
	})
	out := []RowRange{rs[0]}
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if last.Stop == nil || (r.Start != nil && bytes.Compare(r.Start, last.Stop) > 0) {
			if last.Stop == nil {
				// Previous range is unbounded above; it swallows the rest.
				break
			}
			out = append(out, r)
			continue
		}
		// Overlapping or adjacent: extend.
		if r.Stop == nil {
			last.Stop = nil
		} else if bytes.Compare(r.Stop, last.Stop) > 0 {
			last.Stop = r.Stop
		}
	}
	return RangeSet{ranges: out}
}
