package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/bytesutil"
)

// singleSet wraps one range.
func singleSet(r RowRange) RangeSet {
	if r.isEmpty() {
		return emptySet()
	}
	return RangeSet{ranges: []RowRange{r}}
}

func rng(start, stop string) RowRange {
	r := RowRange{}
	if start != "" {
		r.Start = []byte(start)
	}
	if stop != "" {
		r.Stop = []byte(stop)
	}
	return r
}

func TestRowRangeBasics(t *testing.T) {
	if !fullRange().isFull() || fullRange().isEmpty() {
		t.Error("full range misclassified")
	}
	if !rng("b", "b").isEmpty() || !rng("c", "b").isEmpty() {
		t.Error("empty range misclassified")
	}
	r := rng("b", "d")
	for key, want := range map[string]bool{"a": false, "b": true, "c": true, "d": false} {
		if r.contains([]byte(key)) != want {
			t.Errorf("contains(%q) = %v", key, !want)
		}
	}
}

func TestIntersectRangesPaperExample(t *testing.T) {
	// §VI-A.5: [a,b] ∩ [c,d] with c<b and a<c merges to [c,b].
	got := intersectRanges(rng("a", "b"), rng("c", "b"))
	_ = got
	m := intersectRanges(rng("a", "m"), rng("g", "z"))
	if string(m.Start) != "g" || string(m.Stop) != "m" {
		t.Errorf("intersect = %s", m)
	}
	empty := intersectRanges(rng("a", "b"), rng("c", "d"))
	if !empty.isEmpty() {
		t.Errorf("disjoint intersect = %s", empty)
	}
	half := intersectRanges(fullRange(), rng("g", ""))
	if string(half.Start) != "g" || half.Stop != nil {
		t.Errorf("half intersect = %s", half)
	}
}

func TestRangeSetUnionMerges(t *testing.T) {
	// §VI-A.5: [a,b] ∪ [c,d] with overlap converts to [a,d].
	s := singleSet(rng("a", "c")).Union(singleSet(rng("b", "d")))
	if len(s.Ranges()) != 1 {
		t.Fatalf("union = %v", s.Ranges())
	}
	if string(s.Ranges()[0].Start) != "a" || string(s.Ranges()[0].Stop) != "d" {
		t.Errorf("union = %s", s.Ranges()[0])
	}
	// Adjacent ranges merge too.
	adj := singleSet(rng("a", "b")).Union(singleSet(rng("b", "c")))
	if len(adj.Ranges()) != 1 {
		t.Errorf("adjacent union = %v", adj.Ranges())
	}
	// Disjoint ranges stay apart.
	dis := singleSet(rng("a", "b")).Union(singleSet(rng("x", "z")))
	if len(dis.Ranges()) != 2 {
		t.Errorf("disjoint union = %v", dis.Ranges())
	}
}

func TestRangeSetIntersect(t *testing.T) {
	s := singleSet(rng("a", "m")).Union(singleSet(rng("p", "z")))
	got := s.Intersect(singleSet(rng("g", "r")))
	if len(got.Ranges()) != 2 {
		t.Fatalf("intersect = %v", got.Ranges())
	}
	if string(got.Ranges()[0].Start) != "g" || string(got.Ranges()[0].Stop) != "m" {
		t.Errorf("first = %s", got.Ranges()[0])
	}
	if string(got.Ranges()[1].Start) != "p" || string(got.Ranges()[1].Stop) != "r" {
		t.Errorf("second = %s", got.Ranges()[1])
	}
	if !s.Intersect(emptySet()).IsEmpty() {
		t.Error("intersect with empty must be empty")
	}
	if got := fullSet().Intersect(s); len(got.Ranges()) != 2 {
		t.Errorf("full intersect = %v", got.Ranges())
	}
}

func TestRangeSetFullAndEmpty(t *testing.T) {
	if !fullSet().IsFull() || fullSet().IsEmpty() {
		t.Error("full set misclassified")
	}
	if !emptySet().IsEmpty() || emptySet().IsFull() {
		t.Error("empty set misclassified")
	}
	if !singleSet(rng("b", "a")).IsEmpty() {
		t.Error("inverted range must normalize to empty")
	}
}

func TestPointAndPrefixSets(t *testing.T) {
	p := pointSet([]byte("k1"), []byte("k2"))
	if !p.Contains([]byte("k1")) || !p.Contains([]byte("k2")) {
		t.Error("points missing")
	}
	if p.Contains([]byte("k1x")) || p.Contains([]byte("k0")) {
		t.Error("point set too wide")
	}
	pre := prefixSet([]byte("user-"))
	if !pre.Contains([]byte("user-1")) || !pre.Contains([]byte("user-")) {
		t.Error("prefix set misses members")
	}
	if pre.Contains([]byte("uses")) || pre.Contains([]byte("user")) {
		t.Error("prefix set too wide")
	}
	if !isPoint(pointSet([]byte("k")).Ranges()[0]) {
		t.Error("point range not detected")
	}
	if isPoint(prefixSet([]byte("k")).Ranges()[0]) {
		t.Error("prefix range misdetected as point")
	}
}

func TestRangeSetUnboundedNormalize(t *testing.T) {
	s := singleSet(rng("m", "")).Union(singleSet(rng("a", "c")))
	rs := s.Ranges()
	if len(rs) != 2 || rs[1].Stop != nil {
		t.Errorf("ranges = %v", rs)
	}
	// A range unbounded above swallows later ranges.
	s2 := singleSet(rng("a", "")).Union(singleSet(rng("m", "z")))
	if len(s2.Ranges()) != 1 || s2.Ranges()[0].Stop != nil {
		t.Errorf("swallow = %v", s2.Ranges())
	}
}

func TestRangeSetContainsMatchesNaiveProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		set := emptySet()
		var raw []RowRange
		for i := 0; i < n; i++ {
			a := []byte(fmt.Sprintf("%03d", r.Intn(100)))
			b := []byte(fmt.Sprintf("%03d", r.Intn(100)))
			if bytes.Compare(a, b) > 0 {
				a, b = b, a
			}
			rr := RowRange{Start: a, Stop: b}
			raw = append(raw, rr)
			set = set.Union(singleSet(rr))
		}
		for probe := 0; probe < 30; probe++ {
			key := []byte(fmt.Sprintf("%03d", r.Intn(100)))
			naive := false
			for _, rr := range raw {
				if rr.contains(key) {
					naive = true
					break
				}
			}
			if set.Contains(key) != naive {
				return false
			}
		}
		// Canonical: ranges sorted and disjoint.
		rs := set.Ranges()
		for i := 1; i < len(rs); i++ {
			if bytes.Compare(rs[i-1].Stop, rs[i].Start) > 0 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPrefixSuccessorUsedForUpperBound(t *testing.T) {
	enc := []byte{0xFF, 0xFF}
	ps := prefixSet(enc)
	if ps.Ranges()[0].Stop != nil {
		t.Error("all-0xFF prefix must be unbounded above")
	}
	if succ := bytesutil.PrefixSuccessor(enc); succ != nil {
		t.Errorf("PrefixSuccessor(FFFF) = %x", succ)
	}
}
