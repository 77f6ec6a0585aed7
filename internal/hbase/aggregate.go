package hbase

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/shc-go/shc/internal/bytesutil"
)

// This file is the partial-aggregate stage of the fused region op — the
// shape of HBase's coprocessor AggregateImplementation plus a
// ColumnInterpreter. A FusedRequest carrying Aggs folds every row its ops
// visit into running partials instead of returning the rows, so only the
// partials cross the network.

// AggKind selects what an AggSpec folds.
type AggKind uint8

// The partial aggregates a region server folds.
const (
	// AggCountRows counts visited rows (COUNT(*)).
	AggCountRows AggKind = iota
	// AggCountColumn counts rows holding a cell in the spec's column.
	AggCountColumn
	// AggSum counts and sums the column's values (SUM and AVG).
	AggSum
	// AggMin tracks the column's smallest value.
	AggMin
	// AggMax tracks the column's largest value.
	AggMax
)

// ValueType is the column interpreter: how a cell value decodes to a
// number. The encodings are the order-preserving fixed-width ones of the
// bytesutil package (the PrimitiveType coder's).
type ValueType uint8

// The value interpretations an AggSpec accepts.
const (
	ValueInt8 ValueType = iota
	ValueInt16
	ValueInt32
	ValueInt64
	ValueFloat32
	ValueFloat64
)

// AggSpec is one partial aggregate of a fused request. Family/Qualifier
// name the input column, which must be in every op's projection; they are
// ignored for AggCountRows.
type AggSpec struct {
	Kind      AggKind
	Family    string
	Qualifier string
	Type      ValueType
}

// WireSize implements rpc.Message sizing for embedded specs: kind and type
// bytes plus the length-prefixed column name.
func (s *AggSpec) WireSize() int {
	return 2 + uvarintLen(uint64(len(s.Family))) + len(s.Family) + uvarintLen(uint64(len(s.Qualifier))) + len(s.Qualifier)
}

// AggPartial is the running state of one AggSpec. Count counts the rows
// (AggCountRows), present cells (AggCountColumn) or summed values (AggSum);
// Sum is the float64 sum of an AggSum; Has reports that an AggMin/AggMax
// has seen a value, Float is that extreme in float64 — the comparison key —
// and Int the exact integer behind it for integer columns.
type AggPartial struct {
	Count int64
	Sum   float64
	Has   bool
	Float float64
	Int   int64
}

// WireSize implements rpc.Message sizing for embedded partials: a flag
// byte, varint Count and Int, fixed 8-byte Sum and Float.
func (p *AggPartial) WireSize() int {
	return 1 + uvarintLen(uint64(p.Count)) + 16 + uvarintLen(zigzag(p.Int))
}

func uvarintLen(x uint64) int { return 1 + (bits.Len64(x|1)-1)/7 }

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// aggFold folds visited rows into a copy of the caller's partials. The
// request's own State is never written: a run that fails re-folds whole
// from the state it started with.
type aggFold struct {
	specs []AggSpec
	state []AggPartial
	err   error
}

func newAggFold(specs []AggSpec, state []AggPartial) (*aggFold, error) {
	f := &aggFold{specs: specs, state: make([]AggPartial, len(specs))}
	if len(state) != 0 {
		if len(state) != len(specs) {
			return nil, fmt.Errorf("hbase: %s: %d aggregate states for %d specs", MethodFused, len(state), len(specs))
		}
		copy(f.state, state)
	}
	return f, nil
}

// add folds one visited row: its resolved cells, newest version first per
// column, and their column ids. slots[k] is the id of specs[k]'s column in
// the same dictionary (binding.slots). It reports false, with err set, on
// a value that does not decode.
func (f *aggFold) add(row []Cell, ids, slots []colID) bool {
	specs, state, slots := f.specs, f.state[:len(f.specs)], slots[:len(f.specs)]
	for k := range specs {
		s, p := &specs[k], &state[k]
		if s.Kind == AggCountRows {
			p.Count++
			continue
		}
		c := slices.Index(ids, slots[k])
		if c < 0 {
			continue // NULL
		}
		i, x, err := s.Type.decode(row[c].Value)
		if err != nil {
			f.err = fmt.Errorf("hbase: aggregate %s:%s: %w", s.Family, s.Qualifier, err)
			return false
		}
		// The comparisons below are the executor's vector fold's: extremes
		// compare in float64 and keep the first of equal keys, sums add in
		// row order — so the partials equal what it would have computed.
		switch s.Kind {
		case AggCountColumn:
			p.Count++
		case AggSum:
			p.Count++
			p.Sum += x
		case AggMin:
			if !p.Has || x < p.Float {
				p.Has, p.Float, p.Int = true, x, i
			}
		case AggMax:
			if !p.Has || x > p.Float {
				p.Has, p.Float, p.Int = true, x, i
			}
		}
	}
	return true
}

// decode interprets raw as t, returning the exact integer (0 for floats)
// and the float64 value every aggregate compares and sums.
func (t ValueType) decode(raw []byte) (int64, float64, error) {
	var i int64
	var err error
	switch t {
	case ValueInt8:
		var v int8
		v, err = bytesutil.DecodeInt8(raw)
		i = int64(v)
	case ValueInt16:
		var v int16
		v, err = bytesutil.DecodeInt16(raw)
		i = int64(v)
	case ValueInt32:
		var v int32
		v, err = bytesutil.DecodeInt32(raw)
		i = int64(v)
	case ValueInt64:
		i, err = bytesutil.DecodeInt64(raw)
	case ValueFloat32:
		v, err := bytesutil.DecodeFloat32(raw)
		return 0, float64(v), err
	case ValueFloat64:
		v, err := bytesutil.DecodeFloat64(raw)
		return 0, v, err
	default:
		return 0, 0, fmt.Errorf("unknown value type %d", t)
	}
	return i, float64(i), err
}
