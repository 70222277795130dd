package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// jsonAppender is implemented by the response envelopes on the hot
// paths (validation reports, apply responses, GraphQL answers): they
// append themselves through a jsonWriter instead of going through
// encoding/json's reflection and its second, indenting pass.
type jsonAppender interface {
	appendJSON(w *jsonWriter)
}

// jsonWriter appends encoding/json's indented layout — what an Encoder
// with SetIndent("", "  ") writes — into one byte buffer, including the
// trailing newline. Strings are escaped and floats formatted exactly as
// encoding/json does on the same values, so the bytes are identical;
// the differential tests in jsonw_test.go hold it to that.
type jsonWriter struct {
	buf   []byte
	depth int
	// first is true between opening an object or array and its first
	// member; it decides between a comma and nothing, and whether the
	// closing bracket goes on its own line.
	first bool
	// members is the scratch stack the data-tree writer sorts map
	// members on; each open map uses the suffix from its own start.
	members []jsonMember
	err     error
}

type jsonMember struct {
	key string
	val any
}

// errSlowPath reports a value of a type the writer does not know;
// encode then encodes the whole value with encoding/json instead.
var errSlowPath = errors.New("value needs encoding/json")

// maxPooledJSON caps the buffer a writer keeps when it returns to the
// pool, so one huge response does not pin its buffer between requests.
const maxPooledJSON = 4 << 20

var jsonWriters = sync.Pool{New: func() any { return new(jsonWriter) }}

func getJSONWriter() *jsonWriter { return jsonWriters.Get().(*jsonWriter) }

// free returns the writer to the pool. The caller must be done with buf.
func (w *jsonWriter) free() {
	if cap(w.buf) > maxPooledJSON {
		return
	}
	clear(w.members[:cap(w.members)])
	*w = jsonWriter{buf: w.buf[:0], members: w.members[:0]}
	jsonWriters.Put(w)
}

// encode renders v into w.buf. A jsonAppender appends itself; any other
// value, or an appender that meets a type it does not know, is encoded
// by encoding/json instead. On error w.buf holds nothing usable.
func (w *jsonWriter) encode(v any) error {
	if a, ok := v.(jsonAppender); ok {
		a.appendJSON(w)
		if w.err != errSlowPath {
			w.buf = append(w.buf, '\n')
			return w.err
		}
		w.buf, w.depth, w.first, w.err = w.buf[:0], 0, false, nil
	}
	out := bytes.NewBuffer(w.buf[:0])
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	w.buf = out.Bytes()
	return err
}

// indent is the whitespace newline appends for the first few levels.
const indent = "                                "

func (w *jsonWriter) newline() {
	w.buf = append(w.buf, '\n')
	n := 2 * w.depth
	for n > len(indent) {
		w.buf = append(w.buf, indent...)
		n -= len(indent)
	}
	w.buf = append(w.buf, indent[:n]...)
}

// next starts the next member or element of the open object or array.
func (w *jsonWriter) next() {
	if !w.first {
		w.buf = append(w.buf, ',')
	}
	w.first = false
	w.newline()
}

func (w *jsonWriter) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.first = false
	w.buf = append(w.buf, c)
}

// key starts an object member whose name needs no escaping (a struct
// field's JSON name).
func (w *jsonWriter) key(name string) {
	w.next()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':', ' ')
}

func (w *jsonWriter) string(s string) { w.buf = appendJSONString(w.buf, s) }

func (w *jsonWriter) int(i int64) { w.buf = strconv.AppendInt(w.buf, i, 10) }

func (w *jsonWriter) bool(b bool) { w.buf = strconv.AppendBool(w.buf, b) }

// float formats f as encoding/json does: the shortest representation,
// in 'e' form outside [1e-6, 1e21) with a single-digit negative
// exponent unpadded. NaN and ±Inf are errors, as there.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		w.buf = append(w.buf, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		n := len(w.buf)
		if n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

func (w *jsonWriter) stringField(name, s string)        { w.key(name); w.string(s) }
func (w *jsonWriter) intField(name string, i int64)     { w.key(name); w.int(i) }
func (w *jsonWriter) boolField(name string, b bool)     { w.key(name); w.bool(b) }
func (w *jsonWriter) floatField(name string, f float64) { w.key(name); w.float(f) }

// ints writes an []int64, nil as null.
func (w *jsonWriter) ints(l []int64) {
	if l == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('[')
	for _, i := range l {
		w.next()
		w.int(i)
	}
	w.close(']')
}

// strings writes a []string, nil as null.
func (w *jsonWriter) strings(l []string) {
	if l == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('[')
	for _, s := range l {
		w.next()
		w.string(s)
	}
	w.close(']')
}

// floatMap writes a non-nil map[string]float64 with its keys sorted.
func (w *jsonWriter) floatMap(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.next()
		w.string(k)
		w.buf = append(w.buf, ':', ' ')
		w.float(m[k])
	}
	w.close('}')
}

// value writes one node of a JSON-ready tree, the shape query results
// take: map[string]any, []any, string, int64, float64, bool and nil.
// Any other type sets errSlowPath.
func (w *jsonWriter) value(v any) {
	switch v := v.(type) {
	case nil:
		w.buf = append(w.buf, "null"...)
	case string:
		w.string(v)
	case int64:
		w.int(v)
	case float64:
		w.float(v)
	case bool:
		w.bool(v)
	case []any:
		if v == nil {
			w.buf = append(w.buf, "null"...)
			return
		}
		w.open('[')
		for _, e := range v {
			w.next()
			w.value(e)
		}
		w.close(']')
	case map[string]any:
		w.object(v)
	default:
		if w.err == nil {
			w.err = errSlowPath
		}
	}
}

// object writes a map[string]any with its keys sorted bytewise, as
// encoding/json sorts them, nil as null.
func (w *jsonWriter) object(m map[string]any) {
	if m == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	start := len(w.members)
	for k, v := range m {
		w.members = append(w.members, jsonMember{k, v})
	}
	end := len(w.members)
	if end-start > 1 {
		slices.SortFunc(w.members[start:], func(a, b jsonMember) int { return strings.Compare(a.key, b.key) })
	}
	w.open('{')
	// Nested maps push their members above end and may move the stack,
	// so index w.members afresh on every step.
	for i := start; i < end; i++ {
		w.next()
		w.string(w.members[i].key)
		w.buf = append(w.buf, ':', ' ')
		w.value(w.members[i].val)
	}
	w.close('}')
	w.members = w.members[:start]
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped (its htmlSafeSet): printable characters other than '"',
// '\\', '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	t[0x7f] = true
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// escapes it with HTML escaping on: the short escapes \" \\ \b \f \n \r
// \t, \u00XX for other control bytes and for '<', '>' and '&', \ufffd
// for each invalid UTF-8 byte, and \u2028 and \u2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
