package cloud

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Order responses are encoded without reflection. encoding/json walks the
// Order struct through reflect and re-compacts the stored definition on
// every call; appendOrderJSON writes the same bytes field by field and
// copies the definition verbatim, which is sound because the order book
// only ever stores it in canonical form (canonicalDefinition). Its string
// and float rules are ports of encoding/json's appendString (HTML-safe
// mode) and floatEncoder(64); TestReadBodiesMatchEncodingJSON and
// FuzzAppendOrderJSON hold the output to json.Marshal's byte for byte.

// ErrInvalidDefinition rejects an order whose definition is not valid JSON.
var ErrInvalidDefinition = errors.New("cloud: order definition is not valid JSON")

// canonicalDefinition returns def as json.Marshal emits a json.RawMessage:
// compacted, with <, >, &, U+2028 and U+2029 escaped. Canonical bytes
// marshal to themselves, which is what lets appendOrderJSON copy them. An
// empty definition means none and stays nil (encoded as null).
func canonicalDefinition(def []byte) (json.RawMessage, error) {
	if len(def) == 0 {
		return nil, nil
	}
	b, err := json.Marshal(json.RawMessage(def))
	if err != nil {
		var me *json.MarshalerError
		if errors.As(err, &me) {
			err = me.Unwrap()
		}
		return nil, fmt.Errorf("%w: %v", ErrInvalidDefinition, err)
	}
	return b, nil
}

// appendOrderJSON appends json.Marshal(o)'s bytes to dst. o.Definition
// must be nil or canonical, as every order the book hands out is. A
// non-finite float fails with encoding/json's error.
func appendOrderJSON(dst []byte, o *Order) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, o.ID)
	dst = append(dst, `,"user":`...)
	dst = appendJSONString(dst, o.User)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, o.Name)
	dst = append(dst, `,"definition":`...)
	if o.Definition == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, o.Definition...)
	}
	dst = append(dst, `,"status":`...)
	dst = appendJSONString(dst, string(o.Status))
	var err error
	dst = append(dst, `,"window-start-s":`...)
	if dst, err = appendJSONFloat(dst, o.WindowStartS); err != nil {
		return dst, err
	}
	dst = append(dst, `,"window-end-s":`...)
	if dst, err = appendJSONFloat(dst, o.WindowEndS); err != nil {
		return dst, err
	}
	dst = append(dst, `,"access":{"vfc-addr":`...)
	dst = appendJSONString(dst, o.Access.VFCAddr)
	dst = append(dst, `,"ssh-addr":`...)
	dst = appendJSONString(dst, o.Access.SSHAddr)
	dst = append(dst, `,"vpn-key":`...)
	dst = appendJSONString(dst, o.Access.VPNKey)
	dst = append(dst, `},"estimated-charge":`...)
	if dst, err = appendJSONFloat(dst, o.EstimatedCharge); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendOrdersJSON appends json.Marshal's bytes for a non-nil list of
// these orders to dst.
func appendOrdersJSON(dst []byte, orders []*Order) ([]byte, error) {
	dst = append(dst, '[')
	for i, ord := range orders {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendOrderJSON(dst, ord); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// orderJSONSize is room enough for appendOrderJSON's bytes of o in the
// common case: its field names and numbers, and its strings unescaped.
func orderJSONSize(o *Order) int {
	return 256 + len(o.ID) + len(o.User) + len(o.Name) + len(o.Definition) + len(o.Status) +
		len(o.Access.VFCAddr) + len(o.Access.SSHAddr) + len(o.Access.VPNKey)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json does with HTML
// escaping on: ", \ and control bytes escaped (\b \f \n \r \t by name,
// the rest as \u00XX), <, > and & also as \u00XX escapes, each invalid
// UTF-8 byte as the escape of U+FFFD, and U+2028/U+2029 as escapes too.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json's float64 encoder does: the
// shortest round-tripping decimal, in exponent form below 1e-6 and from
// 1e21 up (with e-07 trimmed to e-7). NaN and ±Inf are an error, as there.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
