package pg

import (
	"fmt"
	"math"
	"unsafe"

	"pgschema/internal/values"
)

// Pointer-free property records.
//
// A heap snapshot stores property rows as []Prop, whose values.Value
// payloads contain Go pointers (strings, list backing arrays) — fine in
// memory, impossible to alias from a read-only file mapping. A mapped
// snapshot therefore stores each property as a fixed 16-byte propRec:
// scalar payloads inline in the word, textual payloads as (offset, len)
// into a byte arena, and list payloads as an index into a small table
// of eagerly decoded values. Both representations answer the same
// Snapshot accessors; engines never see the difference.

// propRec is one property in record form. The layout is the on-disk
// format: it must stay exactly 16 bytes with the payload word 8-aligned,
// so whole record columns can be written and mapped as raw bytes.
type propRec struct {
	sym   int32  // graph-interned property name
	kind  uint8  // values.Kind of the payload
	arena uint8  // textual payload arena: 0 = propArena, 1 = propOver
	_     uint16 // padding, zero on disk
	a     uint64 // payload word (see recValue)
}

const propRecSize = 16

func init() {
	if unsafe.Sizeof(propRec{}) != propRecSize {
		panic("pg: propRec layout must be exactly 16 bytes")
	}
}

// recValue decodes a record's payload word back into a values.Value.
// Textual kinds return a zero-copy view into the record's arena; lists
// return the eagerly decoded value shared by the snapshot. An unknown
// kind (possible only in a corrupt trusted file) decodes as Null rather
// than panicking.
func (s *Snapshot) recValue(r *propRec) values.Value {
	switch values.Kind(r.kind) {
	case values.KindInt:
		return values.Int(int64(r.a))
	case values.KindFloat:
		return values.Float(math.Float64frombits(r.a))
	case values.KindBoolean:
		return values.Boolean(r.a != 0)
	case values.KindString:
		return values.String(s.recString(r))
	case values.KindID:
		return values.ID(s.recString(r))
	case values.KindEnum:
		return values.Enum(s.recString(r))
	case values.KindList:
		if i := int(r.a); i < len(s.propLists) {
			return s.propLists[i]
		}
		return values.Null
	default:
		return values.Null
	}
}

// recString materializes a textual payload as a string header over the
// arena bytes — no copy, no allocation. The arena is immutable (a
// read-only mapping, or an append-only private overflow whose existing
// bytes never move), so the string is as good as any other.
func (s *Snapshot) recString(r *propRec) string {
	arena := s.propArena
	if r.arena != 0 {
		arena = s.propOver
	}
	off, n := int(r.a>>32), int(uint32(r.a))
	if n == 0 || off < 0 || off+n > len(arena) {
		return ""
	}
	return unsafe.String(&arena[off], n)
}

// recProp decodes a record into a full Prop, reconstructing the Name
// from the snapshot's symbol names.
func (s *Snapshot) recProp(r *propRec) Prop {
	return Prop{Sym: Sym(r.sym), Name: s.symNames[r.sym], Value: s.recValue(r)}
}

// recEncoder flattens Props into records: scalars inline, strings
// appended to an arena, lists appended to a table of decoded values.
// The writer encodes into arena 0; the snapshot patcher encodes into
// the private overflow arena (1) so mapped bytes stay untouched.
type recEncoder struct {
	arenaID uint8
	recs    []propRec
	arena   []byte
	lists   []values.Value
}

func (enc *recEncoder) add(p *Prop) error {
	r := propRec{sym: int32(p.Sym), kind: uint8(p.Value.Kind())}
	switch p.Value.Kind() {
	case values.KindNull:
	case values.KindInt:
		r.a = uint64(p.Value.AsInt())
	case values.KindFloat:
		r.a = math.Float64bits(p.Value.AsFloat())
	case values.KindBoolean:
		if p.Value.AsBool() {
			r.a = 1
		}
	case values.KindString, values.KindID, values.KindEnum:
		str := p.Value.AsString()
		off := len(enc.arena)
		if off+len(str) > math.MaxUint32 {
			return fmt.Errorf("pg: property string arena exceeds 4 GiB")
		}
		r.arena = enc.arenaID
		r.a = uint64(off)<<32 | uint64(uint32(len(str)))
		enc.arena = append(enc.arena, str...)
	case values.KindList:
		r.a = uint64(len(enc.lists))
		enc.lists = append(enc.lists, p.Value)
	default:
		return fmt.Errorf("pg: cannot encode property value of kind %v", p.Value.Kind())
	}
	enc.recs = append(enc.recs, r)
	return nil
}

func (enc *recEncoder) addAll(props []Prop) error {
	for i := range props {
		if err := enc.add(&props[i]); err != nil {
			return err
		}
	}
	return nil
}
