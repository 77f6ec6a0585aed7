package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/shc-go/shc/internal/bytesutil"
	"github.com/shc-go/shc/internal/plan"
)

// FieldCoder serializes typed values to the byte arrays HBase stores and
// back (paper §IV-B). Coders whose OrderPreserving method reports true
// guarantee that byte-wise comparison of encodings matches value order,
// which is what rowkey range pushdown and partition pruning require.
type FieldCoder interface {
	// Name is the catalog tableCoder identifier.
	Name() string
	// Encode serializes v, which must match t's Go representation.
	Encode(v any, t plan.DataType) ([]byte, error)
	// Decode parses bytes produced by Encode for type t.
	Decode(b []byte, t plan.DataType) (any, error)
	// OrderPreserving reports whether encodings sort like values.
	OrderPreserving() bool
}

// Coder names accepted in catalogs.
const (
	CoderPrimitive = "PrimitiveType"
	CoderPhoenix   = "Phoenix"
	CoderAvro      = "Avro"
)

// CoderByName returns the coder for a catalog tableCoder value; the empty
// string defaults to PrimitiveType, as in SHC.
func CoderByName(name string) (FieldCoder, error) {
	switch name {
	case "", CoderPrimitive:
		return PrimitiveCoder{}, nil
	case CoderPhoenix:
		return PhoenixCoder{}, nil
	case CoderAvro:
		return AvroCoder{}, nil
	}
	return nil, fmt.Errorf("core: unknown tableCoder %q", name)
}

// PrimitiveCoder is SHC's native coder: order-preserving fixed-width
// encodings built on the bytesutil transforms, raw bytes for strings and
// binary. It is the fastest and leanest of the three (paper Table II).
type PrimitiveCoder struct{}

// Name implements FieldCoder.
func (PrimitiveCoder) Name() string { return CoderPrimitive }

// OrderPreserving implements FieldCoder.
func (PrimitiveCoder) OrderPreserving() bool { return true }

// Encode implements FieldCoder.
func (PrimitiveCoder) Encode(v any, t plan.DataType) ([]byte, error) {
	if v == nil {
		return nil, fmt.Errorf("core: cannot encode NULL")
	}
	cv, err := plan.CoerceLiteral(v, t)
	if err != nil {
		return nil, err
	}
	switch t {
	case plan.TypeString:
		return bytesutil.EncodeString(cv.(string)), nil
	case plan.TypeInt8:
		return bytesutil.EncodeInt8(cv.(int8)), nil
	case plan.TypeInt16:
		return bytesutil.EncodeInt16(cv.(int16)), nil
	case plan.TypeInt32:
		return bytesutil.EncodeInt32(cv.(int32)), nil
	case plan.TypeInt64, plan.TypeTimestamp:
		return bytesutil.EncodeInt64(cv.(int64)), nil
	case plan.TypeFloat32:
		return bytesutil.EncodeFloat32(cv.(float32)), nil
	case plan.TypeFloat64:
		return bytesutil.EncodeFloat64(cv.(float64)), nil
	case plan.TypeBool:
		return bytesutil.EncodeBool(cv.(bool)), nil
	case plan.TypeBinary:
		return bytesutil.Clone(cv.([]byte)), nil
	}
	return nil, fmt.Errorf("core: primitive coder cannot encode %s", t)
}

// Decode implements FieldCoder.
func (PrimitiveCoder) Decode(b []byte, t plan.DataType) (any, error) {
	switch t {
	case plan.TypeString:
		return bytesutil.DecodeString(b)
	case plan.TypeInt8:
		return bytesutil.DecodeInt8(b)
	case plan.TypeInt16:
		return bytesutil.DecodeInt16(b)
	case plan.TypeInt32:
		return bytesutil.DecodeInt32(b)
	case plan.TypeInt64:
		return bytesutil.DecodeInt64(b)
	case plan.TypeTimestamp:
		return bytesutil.DecodeInt64(b)
	case plan.TypeFloat32:
		return bytesutil.DecodeFloat32(b)
	case plan.TypeFloat64:
		return bytesutil.DecodeFloat64(b)
	case plan.TypeBool:
		return bytesutil.DecodeBool(b)
	case plan.TypeBinary:
		return bytesutil.Clone(b), nil
	}
	return nil, fmt.Errorf("core: primitive coder cannot decode %s", t)
}

// phoenixTags tag each encoded value with its Phoenix type id, mirroring
// how Phoenix's PDataType layout carries type information. The payload
// reuses the order-preserving primitive transforms (Phoenix's numeric
// encodings flip the sign bit the same way), so Phoenix-coded rowkeys still
// support range pruning at one extra byte per value.
var phoenixTags = map[plan.DataType]byte{
	plan.TypeString:    1,
	plan.TypeInt8:      2,
	plan.TypeInt16:     3,
	plan.TypeInt32:     4,
	plan.TypeInt64:     5,
	plan.TypeFloat32:   6,
	plan.TypeFloat64:   7,
	plan.TypeBool:      8,
	plan.TypeBinary:    9,
	plan.TypeTimestamp: 10,
}

// PhoenixCoder writes values the way Apache Phoenix stores them, letting
// SHC read and write tables shared with Phoenix (paper §IV-B.3).
type PhoenixCoder struct{}

// Name implements FieldCoder.
func (PhoenixCoder) Name() string { return CoderPhoenix }

// OrderPreserving implements FieldCoder: the tag constant per column keeps
// byte order aligned with value order within a column.
func (PhoenixCoder) OrderPreserving() bool { return true }

// Encode implements FieldCoder.
func (PhoenixCoder) Encode(v any, t plan.DataType) ([]byte, error) {
	tag, ok := phoenixTags[t]
	if !ok {
		return nil, fmt.Errorf("core: phoenix coder cannot encode %s", t)
	}
	payload, err := (PrimitiveCoder{}).Encode(v, t)
	if err != nil {
		return nil, err
	}
	return append([]byte{tag}, payload...), nil
}

// Decode implements FieldCoder.
func (PhoenixCoder) Decode(b []byte, t plan.DataType) (any, error) {
	tag, ok := phoenixTags[t]
	if !ok {
		return nil, fmt.Errorf("core: phoenix coder cannot decode %s", t)
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("core: phoenix value too short")
	}
	if b[0] != tag {
		return nil, fmt.Errorf("core: phoenix type tag %d does not match %s", b[0], t)
	}
	return (PrimitiveCoder{}).Decode(b[1:], t)
}

// avroEnvelope is the self-describing record AvroCoder stores per value.
type avroEnvelope struct {
	Type  string          `json:"type"`
	Value json.RawMessage `json:"value"`
}

// AvroCoder stores each value as a self-describing record, the way SHC
// persists Avro records in HBase cells (paper §IV-B.2, Code 2). The schema
// travels with every value, which costs encoding time and space — the
// trade-off Table II measures.
type AvroCoder struct{}

// Name implements FieldCoder.
func (AvroCoder) Name() string { return CoderAvro }

// OrderPreserving implements FieldCoder: JSON-framed values do not sort.
func (AvroCoder) OrderPreserving() bool { return false }

// Encode implements FieldCoder.
func (AvroCoder) Encode(v any, t plan.DataType) ([]byte, error) {
	cv, err := plan.CoerceLiteral(v, t)
	if err != nil {
		return nil, err
	}
	inner, err := json.Marshal(jsonable(cv))
	if err != nil {
		return nil, fmt.Errorf("core: avro encode: %w", err)
	}
	return json.Marshal(avroEnvelope{Type: t.String(), Value: inner})
}

// Decode implements FieldCoder.
func (AvroCoder) Decode(b []byte, t plan.DataType) (any, error) {
	var env avroEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("core: avro decode: %w", err)
	}
	if env.Type != t.String() {
		return nil, fmt.Errorf("core: avro record of type %s read as %s", env.Type, t)
	}
	switch t {
	case plan.TypeString:
		var s string
		err := json.Unmarshal(env.Value, &s)
		return s, err
	case plan.TypeBool:
		var v bool
		err := json.Unmarshal(env.Value, &v)
		return v, err
	case plan.TypeBinary:
		var v []byte
		err := json.Unmarshal(env.Value, &v)
		return v, err
	case plan.TypeFloat32:
		var v float32
		err := json.Unmarshal(env.Value, &v)
		return v, err
	case plan.TypeFloat64:
		var v float64
		err := json.Unmarshal(env.Value, &v)
		return v, err
	default:
		var v int64
		if err := json.Unmarshal(env.Value, &v); err != nil {
			return nil, err
		}
		return plan.CoerceLiteral(v, t)
	}
}

func jsonable(v any) any {
	switch x := v.(type) {
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	}
	return v
}

// rowkeyCodec encodes and decodes composite row keys. Every dimension is
// encoded with the catalog's coder; variable-length string dimensions in
// non-final positions get a 0x00 terminator so the key remains both
// order-preserving and decodable.
type rowkeyCodec struct {
	cat   *Catalog
	coder FieldCoder
}

// errKeyNUL rejects a value a terminated rowkey dimension cannot hold.
var errKeyNUL = errors.New("contains NUL")

// encodeRowkey concatenates the encoded dimensions of vals, which follow
// the catalog's rowkey field order.
func (rc rowkeyCodec) encodeRowkey(vals []any) ([]byte, error) {
	if n := len(rc.cat.RowkeyFields()); len(vals) != n {
		return nil, fmt.Errorf("core: rowkey needs %d values, got %d", n, len(vals))
	}
	var out []byte
	for dim, v := range vals {
		var err error
		if out, err = rc.appendDim(out, dim, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendDim appends rowkey dimension dim holding v to dst. Variable-length
// dimensions before the last get a terminator to stay decodable (and
// order-preserving where the coder is), so a value containing NUL fails
// with errKeyNUL there.
func (rc rowkeyCodec) appendDim(dst []byte, dim int, v any) ([]byte, error) {
	fields := rc.cat.RowkeyFields()
	t := rc.cat.fieldType(fields[dim])
	enc, err := rc.coder.Encode(v, t)
	if err != nil {
		return nil, fmt.Errorf("core: rowkey dimension %q: %w", fields[dim], err)
	}
	if len(dst) == 0 {
		dst = enc // Encode returns a fresh slice
	} else {
		dst = append(dst, enc...)
	}
	if dim < len(fields)-1 && fixedWidth(t, rc.coder) < 0 {
		if bytes.IndexByte(enc, 0) >= 0 {
			return nil, fmt.Errorf("core: rowkey dimension %q: %w", fields[dim], errKeyNUL)
		}
		dst = append(dst, 0)
	}
	return dst, nil
}

// fixedWidth reports the encoded byte width of t under the given coder, or
// -1 for variable-length encodings (strings, binary, and every value of
// the self-describing Avro and generic string coders).
func fixedWidth(t plan.DataType, coder FieldCoder) int {
	tag := 0
	switch coder.(type) {
	case PrimitiveCoder:
	case PhoenixCoder:
		tag = 1
	default:
		return -1
	}
	switch t {
	case plan.TypeBool, plan.TypeInt8:
		return 1 + tag
	case plan.TypeInt16:
		return 2 + tag
	case plan.TypeInt32, plan.TypeFloat32:
		return 4 + tag
	case plan.TypeInt64, plan.TypeFloat64, plan.TypeTimestamp:
		return 8 + tag
	}
	return -1
}

// decodeRowkey splits an encoded key back into dimension values.
func (rc rowkeyCodec) decodeRowkey(key []byte) ([]any, error) {
	return rc.decodeRowkeyInto(nil, key)
}

// decodeRowkeyInto is decodeRowkey with a reusable destination: when dst has
// capacity for every dimension it is reused, so a tight decode loop pays for
// one scratch slice instead of one allocation per row.
func (rc rowkeyCodec) decodeRowkeyInto(dst []any, key []byte) ([]any, error) {
	fields := rc.cat.RowkeyFields()
	var out []any
	if cap(dst) >= len(fields) {
		out = dst[:len(fields)]
	} else {
		out = make([]any, len(fields))
	}
	rest := key
	for i, f := range fields {
		t := rc.cat.fieldType(f)
		last := i == len(fields)-1
		var chunk []byte
		w := fixedWidth(t, rc.coder)
		switch {
		case last:
			chunk = rest
			rest = nil
		case w < 0:
			idx := strings.IndexByte(string(rest), 0)
			if idx < 0 {
				return nil, fmt.Errorf("core: rowkey dimension %q: missing terminator", f)
			}
			chunk = rest[:idx]
			rest = rest[idx+1:]
		default:
			if len(rest) < w {
				return nil, fmt.Errorf("core: rowkey dimension %q: cannot split %s", f, t)
			}
			chunk = rest[:w]
			rest = rest[w:]
		}
		v, err := rc.coder.Decode(chunk, t)
		if err != nil {
			return nil, fmt.Errorf("core: rowkey dimension %q: %w", f, err)
		}
		out[i] = v
	}
	return out, nil
}
