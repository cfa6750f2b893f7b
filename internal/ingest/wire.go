package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
)

// maxDepth is encoding/json's nesting limit: containers nested deeper are
// a syntax error there, so they are one here too.
const maxDepth = 10000

// Scanner is a validating single-pass JSON reader over one byte slice. It
// accepts exactly the syntax encoding/json accepts (RFC 8259, with invalid
// UTF-8 tolerated inside strings and nesting capped at 10000 levels) and
// converts values by encoding/json's rules, so a decoder written against
// it matches json.Unmarshal into the equivalent struct without reflection
// or intermediate copies. Byte slices it returns alias the input.
//
// Objects and arrays are read by iteration:
//
//	if err := s.Object(); err != nil { ... }
//	for {
//		key, ok, err := s.Key()
//		if err != nil || !ok { ... } // !ok: the object closed
//		// read key's value with exactly one value method
//	}
type Scanner struct {
	b     []byte
	i     int
	depth int
	// first is set just past '{' or '[': the next member takes no comma.
	first bool
}

// NewScanner returns a Scanner positioned at the start of b.
func NewScanner(b []byte) Scanner { return Scanner{b: b} }

// SkipSpace advances past JSON whitespace.
func (s *Scanner) SkipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// More skips whitespace and reports whether any input remains.
func (s *Scanner) More() bool {
	s.SkipSpace()
	return s.i < len(s.b)
}

// End reports an error unless only whitespace remains, as json.Unmarshal
// requires after its one value.
func (s *Scanner) End() error {
	if s.More() {
		return s.fail("after top-level value")
	}
	return nil
}

// fail describes a syntax error at the current offset.
func (s *Scanner) fail(context string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", s.b[s.i], s.i, context)
}

// Null consumes a null literal if one comes next and reports whether it
// did.
func (s *Scanner) Null() bool {
	s.SkipSpace()
	return s.i < len(s.b) && s.b[s.i] == 'n' && s.literal("null")
}

// literal consumes lit if the input continues with it.
func (s *Scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// Object consumes the '{' that opens an object.
func (s *Scanner) Object() error { return s.open('{', "looking for beginning of object") }

// Array consumes the '[' that opens an array.
func (s *Scanner) Array() error { return s.open('[', "looking for beginning of array") }

func (s *Scanner) open(c byte, context string) error {
	s.SkipSpace()
	if s.i >= len(s.b) || s.b[s.i] != c {
		return s.fail(context)
	}
	if s.depth >= maxDepth {
		return fmt.Errorf("exceeded max depth %d at offset %d", maxDepth, s.i)
	}
	s.i++
	s.depth++
	s.first = true
	return nil
}

// member moves to the next member of the innermost open container, which
// closes with c. It reports false, having consumed c, when the container
// closes.
func (s *Scanner) member(c byte) (bool, error) {
	s.SkipSpace()
	first := s.first
	s.first = false
	switch {
	case s.i >= len(s.b):
		return false, s.fail("after value")
	case s.b[s.i] == c:
		s.i++
		s.depth--
		return false, nil
	case first:
		return true, nil
	case s.b[s.i] == ',':
		s.i++
		return true, nil
	}
	return false, s.fail("after value")
}

// Elem moves to the next element of the innermost open array, which the
// caller then reads with one value method. It reports false, having
// consumed the ']', when the array closes.
func (s *Scanner) Elem() (bool, error) { return s.member(']') }

// Key reads the next key of the innermost open object and the ':' after
// it; the caller then reads the key's value with one value method. It
// reports false, having consumed the '}', when the object closes. A key
// with escapes or non-ASCII bytes is returned unquoted, as encoding/json
// sees it; match it with bytes.EqualFold, encoding/json's rule.
func (s *Scanner) Key() ([]byte, bool, error) {
	key, plain, ok, err := s.rawKey()
	if !ok || err != nil || plain {
		return key, ok, err
	}
	var k string
	if err := json.Unmarshal(key, &k); err != nil {
		return nil, false, err
	}
	return []byte(k), true, nil
}

// rawKey is Key without the unquoting: key is the quoted token unless
// plain, when it is the bytes between the quotes.
func (s *Scanner) rawKey() (key []byte, plain, ok bool, err error) {
	if ok, err = s.member('}'); !ok || err != nil {
		return nil, false, ok, err
	}
	s.SkipSpace()
	if key, plain, err = s.str(); err != nil {
		return nil, false, false, err
	}
	s.SkipSpace()
	if s.i >= len(s.b) || s.b[s.i] != ':' {
		return nil, false, false, s.fail("after object key")
	}
	s.i++
	if plain {
		key = key[1 : len(key)-1]
	}
	return key, plain, true, nil
}

// str scans a string token and returns it with its quotes. plain reports
// that it holds neither escapes nor non-ASCII bytes, so the bytes between
// the quotes are its value.
func (s *Scanner) str() (tok []byte, plain bool, err error) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false, s.fail("looking for beginning of string")
	}
	start := s.i
	plain = true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start:s.i], plain, nil
		case c == '\\':
			plain = false
			s.i++
			if s.i >= len(s.b) {
				break
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if s.i++; s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return nil, false, s.fail("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, s.fail("in string escape code")
			}
		case c < 0x20:
			return nil, false, s.fail("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, s.fail("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipDigits returns the index of the first non-digit at or after i. It
// tests eight bytes at a time: all are digits when every high nibble is 3
// and stays 3 after adding 6 to each byte (no byte carries, since the
// first test bounds each at 0x3f).
func skipDigits(b []byte, i int) int {
	const hi, three, six = 0xf0f0f0f0f0f0f0f0, 0x3030303030303030, 0x0606060606060606
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if x&hi != three || (x+six)&hi != three {
			break
		}
	}
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// number scans a number token; context describes a token that does not
// start like one.
func (s *Scanner) number(context string) ([]byte, error) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = skipDigits(b, i+1)
	default:
		s.i = i
		return nil, s.fail(context)
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			s.i = i
			return nil, s.fail("after decimal point in numeric literal")
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			s.i = i
			return nil, s.fail("in exponent of numeric literal")
		}
		i = skipDigits(b, i+1)
	}
	tok := b[s.i:i]
	s.i = i
	return tok, nil
}

// Skip validates the next value, of any kind, and moves past it.
func (s *Scanner) Skip() error {
	s.SkipSpace()
	if s.i >= len(s.b) {
		return s.fail("looking for beginning of value")
	}
	switch s.b[s.i] {
	case '{':
		if err := s.Object(); err != nil {
			return err
		}
		for {
			_, _, ok, err := s.rawKey()
			if !ok || err != nil {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := s.Array(); err != nil {
			return err
		}
		for {
			ok, err := s.Elem()
			if !ok || err != nil {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := s.str()
		return err
	case 't', 'f', 'n':
		if s.literal("true") || s.literal("false") || s.literal("null") {
			return nil
		}
		return s.fail("in literal")
	}
	_, err := s.number("looking for beginning of value")
	return err
}

// Value validates the next value and returns its bytes, as a
// json.RawMessage field would receive them.
func (s *Scanner) Value() ([]byte, error) {
	s.SkipSpace()
	start := s.i
	if err := s.Skip(); err != nil {
		return nil, err
	}
	return s.b[start:s.i], nil
}

// Text reads a string into *dst; null leaves *dst unchanged, as
// encoding/json leaves a string field. A string with escapes or non-ASCII
// bytes is unquoted by encoding/json, which also replaces invalid UTF-8
// with U+FFFD.
func (s *Scanner) Text(dst *string) error {
	if s.Null() {
		return nil
	}
	tok, plain, err := s.str()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(tok[1 : len(tok)-1])
		return nil
	}
	var v string // a local, so that only this path allocates it
	if err := json.Unmarshal(tok, &v); err != nil {
		return err
	}
	*dst = v
	return nil
}

// Int reads an integer into *dst by encoding/json's rules for an int
// field: null leaves *dst unchanged, and a fraction, an exponent or an
// overflow is an error.
func (s *Scanner) Int(dst *int) error {
	if s.Null() {
		return nil
	}
	tok, err := s.number("where an int is expected")
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into an int", tok)
	}
	*dst = int(n)
	return nil
}

// Float64 reads a number into *dst by encoding/json's rules for a float64
// field: null leaves *dst unchanged, and a magnitude beyond float64's range
// is an error.
func (s *Scanner) Float64(dst *float64) error {
	if s.Null() {
		return nil
	}
	tok, err := s.number("where a number is expected")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into a float64", tok)
	}
	*dst = f
	return nil
}
