package plan

import "fmt"

// VecKind is the physical storage class of a Vector. Several catalog types
// share one storage class (every integer width and timestamps ride in
// int64s; both float widths ride in float64s) so the vectorized operators
// compile against a handful of tight loops instead of one per DataType.
type VecKind int

// Vector storage classes.
const (
	KindInvalid VecKind = iota
	KindInt64           // int8/int16/int32/int64/timestamp
	KindFloat64         // float32/float64
	KindString
	KindBool
	KindBytes // binary
	KindAny   // boxed fallback for unknown types
	KindLazy  // undecoded source bytes, materialized on demand
)

// KindOf maps a catalog type to its vector storage class.
func KindOf(t DataType) VecKind {
	switch t {
	case TypeInt8, TypeInt16, TypeInt32, TypeInt64, TypeTimestamp:
		return KindInt64
	case TypeFloat32, TypeFloat64:
		return KindFloat64
	case TypeString:
		return KindString
	case TypeBool:
		return KindBool
	case TypeBinary:
		return KindBytes
	}
	return KindAny
}

// Vector is one column of a Batch: a typed value array plus a null bitmap.
// Exactly one storage slice (matching Kind) is populated. A KindLazy vector
// holds the source's undecoded bytes and a decoder; Value decodes only the
// positions actually read — late materialization for columns the filter
// never touches.
type Vector struct {
	Kind VecKind
	// Typ is the column's catalog type; Value converts storage back to
	// Typ's exact Go representation (an int8 column read through an int64
	// vector still materializes as int8), so vectorized results are
	// byte-identical to the row path's.
	Typ DataType

	Int64s   []int64
	Float64s []float64
	Strings  []string
	Bools    []bool
	Bytes    [][]byte
	Anys     []any

	// Lazy storage: Raw[i] is the undecoded source value, Decode turns it
	// into the boxed Go value. Absent cells are nulls with a nil Raw entry.
	Raw    [][]byte
	Decode func([]byte) (any, error)

	nulls []uint64
	n     int
}

// NewVector returns an empty vector for a column of type t.
func NewVector(t DataType) *Vector {
	return &Vector{Kind: KindOf(t), Typ: t}
}

// NewLazyVector returns an empty lazy vector whose values decode through
// dec when (and only when) they are materialized.
func NewLazyVector(t DataType, dec func([]byte) (any, error)) *Vector {
	return &Vector{Kind: KindLazy, Typ: t, Decode: dec}
}

// Len reports the number of entries.
func (v *Vector) Len() int { return v.n }

// Reset empties the vector, keeping capacity and kind.
func (v *Vector) Reset() {
	v.Int64s = v.Int64s[:0]
	v.Float64s = v.Float64s[:0]
	v.Strings = v.Strings[:0]
	v.Bools = v.Bools[:0]
	v.Bytes = v.Bytes[:0]
	v.Anys = v.Anys[:0]
	v.Raw = v.Raw[:0]
	for i := range v.nulls {
		v.nulls[i] = 0
	}
	v.n = 0
}

// Null reports whether entry i is SQL NULL.
func (v *Vector) Null(i int) bool {
	w := i >> 6
	if w >= len(v.nulls) {
		return false
	}
	return v.nulls[w]&(1<<(uint(i)&63)) != 0
}

func (v *Vector) setNull(i int) {
	w := i >> 6
	for w >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[w] |= 1 << (uint(i) & 63)
}

// AppendNull appends a NULL entry.
func (v *Vector) AppendNull() {
	v.setNull(v.n)
	switch v.Kind {
	case KindInt64:
		v.Int64s = append(v.Int64s, 0)
	case KindFloat64:
		v.Float64s = append(v.Float64s, 0)
	case KindString:
		v.Strings = append(v.Strings, "")
	case KindBool:
		v.Bools = append(v.Bools, false)
	case KindBytes:
		v.Bytes = append(v.Bytes, nil)
	case KindAny:
		v.Anys = append(v.Anys, nil)
	case KindLazy:
		v.Raw = append(v.Raw, nil)
	}
	v.n++
}

// AppendInt64 appends to a KindInt64 vector.
func (v *Vector) AppendInt64(x int64) { v.Int64s = append(v.Int64s, x); v.n++ }

// AppendFloat64 appends to a KindFloat64 vector.
func (v *Vector) AppendFloat64(x float64) { v.Float64s = append(v.Float64s, x); v.n++ }

// AppendString appends to a KindString vector.
func (v *Vector) AppendString(x string) { v.Strings = append(v.Strings, x); v.n++ }

// AppendBool appends to a KindBool vector.
func (v *Vector) AppendBool(x bool) { v.Bools = append(v.Bools, x); v.n++ }

// AppendBytes appends to a KindBytes vector.
func (v *Vector) AppendBytes(x []byte) { v.Bytes = append(v.Bytes, x); v.n++ }

// AppendRaw appends an undecoded value to a KindLazy vector.
func (v *Vector) AppendRaw(raw []byte) { v.Raw = append(v.Raw, raw); v.n++ }

// Append appends a boxed value, dispatching on the column type; nil appends
// NULL. It is the transpose path for row-shaped sources.
func (v *Vector) Append(val any) error {
	if val == nil {
		v.AppendNull()
		return nil
	}
	switch v.Kind {
	case KindInt64:
		i, ok := ToInt(val)
		if !ok {
			return fmt.Errorf("plan: cannot store %T in %s vector", val, v.Typ)
		}
		v.AppendInt64(i)
	case KindFloat64:
		f, ok := ToFloat(val)
		if !ok {
			return fmt.Errorf("plan: cannot store %T in %s vector", val, v.Typ)
		}
		v.AppendFloat64(f)
	case KindString:
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("plan: cannot store %T in string vector", val)
		}
		v.AppendString(s)
	case KindBool:
		b, ok := val.(bool)
		if !ok {
			return fmt.Errorf("plan: cannot store %T in bool vector", val)
		}
		v.AppendBool(b)
	case KindBytes:
		b, ok := val.([]byte)
		if !ok {
			return fmt.Errorf("plan: cannot store %T in binary vector", val)
		}
		v.AppendBytes(b)
	default:
		v.Anys = append(v.Anys, val)
		v.n++
	}
	return nil
}

// Value materializes entry i as the boxed Go value of the column's catalog
// type — the exact representation the row path produces. Lazy entries
// decode here, which is the only place untouched columns pay decode cost.
func (v *Vector) Value(i int) (any, error) {
	if v.Null(i) {
		return nil, nil
	}
	switch v.Kind {
	case KindInt64:
		x := v.Int64s[i]
		switch v.Typ {
		case TypeInt8:
			return int8(x), nil
		case TypeInt16:
			return int16(x), nil
		case TypeInt32:
			return int32(x), nil
		}
		return x, nil
	case KindFloat64:
		if v.Typ == TypeFloat32 {
			return float32(v.Float64s[i]), nil
		}
		return v.Float64s[i], nil
	case KindString:
		return v.Strings[i], nil
	case KindBool:
		return v.Bools[i], nil
	case KindBytes:
		return v.Bytes[i], nil
	case KindLazy:
		return v.Decode(v.Raw[i])
	}
	return v.Anys[i], nil
}

// Num reads entry i as float64, the numeric comparison space Compare uses;
// ok=false means NULL. Lazy entries decode; non-numeric values error.
func (v *Vector) Num(i int) (float64, bool, error) {
	if v.Null(i) {
		return 0, false, nil
	}
	switch v.Kind {
	case KindInt64:
		return float64(v.Int64s[i]), true, nil
	case KindFloat64:
		return v.Float64s[i], true, nil
	}
	val, err := v.Value(i)
	if err != nil || val == nil {
		return 0, false, err
	}
	f, ok := ToFloat(val)
	if !ok {
		return 0, false, fmt.Errorf("plan: cannot compare %T numerically", val)
	}
	return f, true, nil
}

// Str reads entry i of a string column; ok=false means NULL. Lazy entries
// decode; non-string values error.
func (v *Vector) Str(i int) (string, bool, error) {
	if v.Null(i) {
		return "", false, nil
	}
	if v.Kind == KindString {
		return v.Strings[i], true, nil
	}
	val, err := v.Value(i)
	if err != nil || val == nil {
		return "", false, err
	}
	s, ok := val.(string)
	if !ok {
		return "", false, fmt.Errorf("plan: want a string, got %T", val)
	}
	return s, true, nil
}

// MemSize approximates the vector's decoded bytes for memory metering.
func (v *Vector) MemSize() int64 {
	switch v.Kind {
	case KindInt64, KindFloat64:
		return int64(v.n) * 8
	case KindBool:
		return int64(v.n)
	case KindString:
		var n int64
		for _, s := range v.Strings {
			n += int64(len(s))
		}
		return n
	case KindBytes:
		var n int64
		for _, b := range v.Bytes {
			n += int64(len(b))
		}
		return n
	case KindLazy:
		var n int64
		for _, b := range v.Raw {
			n += int64(len(b))
		}
		return n
	}
	var n int64
	for _, x := range v.Anys {
		n += int64(RowSize(Row{x}))
	}
	return n
}

// Batch is a fixed-size run of rows stored column-wise: one Vector per
// schema field, all the same length. Operators never iterate a Batch
// row-wise; they loop over its vectors guided by a selection vector (the
// indexes of surviving rows) and materialize Rows only at pipeline output.
type Batch struct {
	Schema Schema
	Cols   []*Vector
	n      int
}

// NewBatch returns an empty batch with one eager vector per field.
func NewBatch(schema Schema) *Batch {
	cols := make([]*Vector, len(schema))
	for i, f := range schema {
		cols[i] = NewVector(f.Type)
	}
	return &Batch{Schema: schema, Cols: cols}
}

// Len reports the row count.
func (b *Batch) Len() int { return b.n }

// SetLen records the row count after the producer fills the vectors.
func (b *Batch) SetLen(n int) { b.n = n }

// Reset empties every vector for reuse.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
	b.n = 0
}

// AppendRow transposes one row into the batch's vectors.
func (b *Batch) AppendRow(r Row) error {
	for i, c := range b.Cols {
		if err := c.Append(r[i]); err != nil {
			return err
		}
	}
	b.n++
	return nil
}

// MaterializeRow boxes row i into a fresh Row.
func (b *Batch) MaterializeRow(i int) (Row, error) {
	r := make(Row, len(b.Cols))
	for j, c := range b.Cols {
		v, err := c.Value(i)
		if err != nil {
			return nil, err
		}
		r[j] = v
	}
	return r, nil
}

// MemSize approximates the batch's decoded bytes for memory metering.
func (b *Batch) MemSize() int64 {
	var n int64
	for _, c := range b.Cols {
		n += c.MemSize()
	}
	return n
}

// FullSel returns a selection vector covering all n rows, reusing buf's
// backing array when it has capacity.
func FullSel(n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	return buf
}
