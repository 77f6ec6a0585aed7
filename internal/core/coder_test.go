package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/plan"
)

var coderValues = []struct {
	t plan.DataType
	v any
}{
	{plan.TypeString, "hello"},
	{plan.TypeString, ""},
	{plan.TypeInt8, int8(-5)},
	{plan.TypeInt16, int16(-300)},
	{plan.TypeInt32, int32(123456)},
	{plan.TypeInt64, int64(-99999999999)},
	{plan.TypeFloat32, float32(3.5)},
	{plan.TypeFloat64, -2.25},
	{plan.TypeBool, true},
	{plan.TypeBinary, []byte{0, 1, 2}},
	{plan.TypeTimestamp, int64(1700000000000)},
}

func allCoders() []FieldCoder {
	return []FieldCoder{PrimitiveCoder{}, PhoenixCoder{}, AvroCoder{}, StringCoder{}}
}

func TestCoderRoundTrips(t *testing.T) {
	for _, coder := range allCoders() {
		for _, c := range coderValues {
			enc, err := coder.Encode(c.v, c.t)
			if err != nil {
				t.Errorf("%s.Encode(%v, %s): %v", coder.Name(), c.v, c.t, err)
				continue
			}
			got, err := coder.Decode(enc, c.t)
			if err != nil {
				t.Errorf("%s.Decode(%s): %v", coder.Name(), c.t, err)
				continue
			}
			if !reflect.DeepEqual(got, c.v) {
				t.Errorf("%s round trip %s: %v (%T) != %v (%T)", coder.Name(), c.t, got, got, c.v, c.v)
			}
		}
	}
}

func TestCoderByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             CoderPrimitive,
		CoderPrimitive: CoderPrimitive,
		CoderPhoenix:   CoderPhoenix,
		CoderAvro:      CoderAvro,
	} {
		c, err := CoderByName(name)
		if err != nil || c.Name() != want {
			t.Errorf("CoderByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := CoderByName("Mystery"); err == nil {
		t.Error("unknown coder must fail")
	}
}

func TestPrimitiveAndPhoenixOrderPreserving(t *testing.T) {
	for _, coder := range []FieldCoder{PrimitiveCoder{}, PhoenixCoder{}} {
		if !coder.OrderPreserving() {
			t.Errorf("%s must be order preserving", coder.Name())
		}
		if err := quick.Check(func(a, b int64) bool {
			ea, err1 := coder.Encode(a, plan.TypeInt64)
			eb, err2 := coder.Encode(b, plan.TypeInt64)
			if err1 != nil || err2 != nil {
				return false
			}
			return (a < b) == (bytes.Compare(ea, eb) < 0)
		}, nil); err != nil {
			t.Errorf("%s int64 order: %v", coder.Name(), err)
		}
		if err := quick.Check(func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || a == b {
				return true
			}
			ea, _ := coder.Encode(a, plan.TypeFloat64)
			eb, _ := coder.Encode(b, plan.TypeFloat64)
			return (a < b) == (bytes.Compare(ea, eb) < 0)
		}, nil); err != nil {
			t.Errorf("%s float64 order: %v", coder.Name(), err)
		}
	}
	if (AvroCoder{}).OrderPreserving() || (StringCoder{}).OrderPreserving() {
		t.Error("Avro and String coders must not claim order preservation")
	}
}

func TestCoderSizes(t *testing.T) {
	// Phoenix adds a tag byte; Avro adds a JSON envelope — the size ladder
	// behind Table II's memory column.
	p, _ := PrimitiveCoder{}.Encode(int64(7), plan.TypeInt64)
	ph, _ := PhoenixCoder{}.Encode(int64(7), plan.TypeInt64)
	av, _ := AvroCoder{}.Encode(int64(7), plan.TypeInt64)
	if !(len(p) < len(ph) && len(ph) < len(av)) {
		t.Errorf("size ladder violated: primitive=%d phoenix=%d avro=%d", len(p), len(ph), len(av))
	}
}

func TestCoderErrors(t *testing.T) {
	if _, err := (PrimitiveCoder{}).Encode(nil, plan.TypeInt64); err == nil {
		t.Error("encoding NULL must fail")
	}
	if _, err := (PrimitiveCoder{}).Encode("str", plan.TypeInt64); err == nil {
		t.Error("type mismatch must fail")
	}
	if _, err := (PrimitiveCoder{}).Decode([]byte{1}, plan.TypeInt64); err == nil {
		t.Error("short decode must fail")
	}
	if _, err := (PhoenixCoder{}).Decode(nil, plan.TypeInt64); err == nil {
		t.Error("empty phoenix decode must fail")
	}
	wrongTag, _ := PhoenixCoder{}.Encode("x", plan.TypeString)
	if _, err := (PhoenixCoder{}).Decode(wrongTag, plan.TypeInt64); err == nil {
		t.Error("phoenix tag mismatch must fail")
	}
	if _, err := (AvroCoder{}).Decode([]byte("not json"), plan.TypeInt64); err == nil {
		t.Error("bad avro decode must fail")
	}
	good, _ := AvroCoder{}.Encode(int64(1), plan.TypeInt64)
	if _, err := (AvroCoder{}).Decode(good, plan.TypeString); err == nil {
		t.Error("avro type mismatch must fail")
	}
	if _, err := (StringCoder{}).Decode([]byte("xyz"), plan.TypeInt64); err == nil {
		t.Error("string coder bad int must fail")
	}
}

func TestRowkeyCodecSingle(t *testing.T) {
	cat, err := ParseCatalog(activesCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowkeyCodec{cat: cat, coder: PrimitiveCoder{}}
	key, err := rc.encodeRowkey([]any{"row-42"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rc.decodeRowkey(key)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != "row-42" {
		t.Errorf("decoded = %v", vals)
	}
}

func TestRowkeyCodecComposite(t *testing.T) {
	cat, err := ParseCatalog(compositeCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowkeyCodec{cat: cat, coder: PrimitiveCoder{}}
	key, err := rc.encodeRowkey([]any{"us-west", "host-1", int64(1234)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rc.decodeRowkey(key)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != "us-west" || vals[1] != "host-1" || vals[2] != int64(1234) {
		t.Errorf("decoded = %v", vals)
	}
	// Composite keys preserve order on the first dimension.
	key2, _ := rc.encodeRowkey([]any{"us-west!", "a", int64(0)})
	if bytes.Compare(key, key2) >= 0 {
		t.Error("first-dimension order violated")
	}
	// NUL in a non-final string dimension is rejected.
	if _, err := rc.encodeRowkey([]any{"bad\x00key", "h", int64(1)}); err == nil {
		t.Error("NUL in key dimension must fail")
	}
	// Wrong arity.
	if _, err := rc.encodeRowkey([]any{"only-one"}); err == nil {
		t.Error("wrong arity must fail")
	}
}

func TestRowkeyCodecCompositeProperty(t *testing.T) {
	cat, err := ParseCatalog(compositeCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowkeyCodec{cat: cat, coder: PrimitiveCoder{}}
	if err := quick.Check(func(r, h string, ts int64) bool {
		if bytes.ContainsRune([]byte(r), 0) || bytes.ContainsRune([]byte(h), 0) {
			return true
		}
		key, err := rc.encodeRowkey([]any{r, h, ts})
		if err != nil {
			return false
		}
		vals, err := rc.decodeRowkey(key)
		if err != nil {
			return false
		}
		return vals[0] == r && vals[1] == h && vals[2] == ts
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRowkeyCodecPhoenix(t *testing.T) {
	doc := `{
	  "table":{"name":"p", "tableCoder":"Phoenix"},
	  "rowkey":"k1:k2",
	  "columns":{
	    "id":{"cf":"rowkey", "col":"k1", "type":"bigint"},
	    "sub":{"cf":"rowkey", "col":"k2", "type":"int"},
	    "v":{"cf":"cf", "col":"v", "type":"string"}
	  }
	}`
	cat, err := ParseCatalog(doc)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowkeyCodec{cat: cat, coder: PhoenixCoder{}}
	key, err := rc.encodeRowkey([]any{int64(77), int32(3)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rc.decodeRowkey(key)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int64(77) || vals[1] != int32(3) {
		t.Errorf("decoded = %v", vals)
	}
}

// decodeRowkey splits an encoded key back into dimension values.
func (rc rowkeyCodec) decodeRowkey(key []byte) ([]any, error) {
	chunks, err := rc.splitRowkey(nil, key)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(chunks))
	for i, f := range rc.cat.RowkeyFields() {
		if out[i], err = rc.coder.Decode(chunks[i], rc.cat.fieldType(f)); err != nil {
			return nil, fmt.Errorf("core: rowkey dimension %q: %w", f, err)
		}
	}
	return out, nil
}
