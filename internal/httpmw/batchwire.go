package httpmw

import (
	"encoding/json"
	"io"
	"strconv"

	"aipow/internal/puzzle"
)

// The /batch wire codec. Decoding has a fast path for the one document
// shape batch clients send and defers everything else to encoding/json
// over the same bytes, so the accepted language and every error text
// stay the standard library's. Encoding writes the response document
// directly, byte for byte what json.Encoder writes for batchResultBody.

// maxFastBody bounds the body the fast path reads into pooled memory. A
// longer body is decoded by encoding/json from what was read followed by
// the rest of the stream, exactly as if it had read the stream itself.
const maxFastBody = 1 << 20

// readBody reads r into buf[:0], up to maxFastBody bytes. rest is nil when
// the whole body was read. Otherwise rest yields what the request still
// holds after buf — the unread remainder, or the read error — so a
// decoder reading buf and then rest sees the stream the request carried.
func readBody(buf []byte, r io.Reader) (_ []byte, rest io.Reader) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			if len(buf) >= maxFastBody {
				return buf, r
			}
			next := make([]byte, len(buf), min(max(2*cap(buf), 4096), maxFastBody))
			copy(next, buf)
			buf = next
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, errReader{err}
		}
	}
}

// errReader replays a read error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanBatch parses the canonical batch document into dst:
//
//	{"requests":[{…},…]}
//
// where each item has only the keys ip, path, tenant, solution and failed
// (lower case, in any order), every string value is printable ASCII
// without escapes, failed is true or false, and only JSON whitespace may
// follow the document. For any other input — and for an empty batch or
// one of more than limit items — it reports false and decides nothing:
// the caller hands the same bytes to encoding/json, which owns every rule
// the scanner does not repeat (case-insensitive keys, escapes and U+FFFD
// substitution, null, trailing data, error texts). For input it accepts,
// the scanner returns what encoding/json decodes.
func scanBatch(b []byte, dst []BatchRequest, limit int) ([]BatchRequest, bool) {
	s := batchScanner{b: b}
	if !s.next('{') {
		return dst, false
	}
	if key, ok := s.str(); !ok || string(key) != "requests" || !s.next(':') || !s.next('[') {
		return dst, false
	}
	for {
		if len(dst) == limit {
			return dst, false
		}
		var req BatchRequest
		if !s.item(&req) {
			return dst, false
		}
		dst = append(dst, req)
		if s.next(',') {
			continue
		}
		if !s.next(']') || !s.next('}') {
			return dst, false
		}
		s.skipSpace()
		return dst, s.i == len(b)
	}
}

// batchScanner is a cursor over a batch document.
type batchScanner struct {
	b []byte
	i int
}

// item parses one request object into req. A repeated key overwrites the
// earlier value, as encoding/json does.
func (s *batchScanner) item(req *BatchRequest) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var field *string
		switch string(key) {
		case "ip":
			field = &req.IP
		case "path":
			field = &req.Path
		case "tenant":
			field = &req.Tenant
		case "solution":
			field = &req.Solution
		case "failed":
			req.Failed = s.word("true")
			if !req.Failed && !s.word("false") {
				return false
			}
		default:
			return false
		}
		if field != nil {
			v, ok := s.str()
			if !ok {
				return false
			}
			*field = string(v)
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// skipSpace skips JSON whitespace.
func (s *batchScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c, reporting whether it was there.
func (s *batchScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word skips whitespace and consumes the literal w.
func (s *batchScanner) word(w string) bool {
	s.skipSpace()
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// str skips whitespace and consumes a string of printable ASCII without
// escapes, returning its contents (aliasing the document).
func (s *batchScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// appendResults appends the response document for results, byte for byte
// what json.NewEncoder(w).Encode(batchResultBody{Results: results})
// writes. When chals is non-nil, a result whose Status is BatchChallenge
// takes its token from chals[i], encoded in place, instead of from its
// Challenge string.
func appendResults(dst []byte, results []BatchResult, chals []puzzle.Challenge) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		r := &results[i]
		dst = append(dst, `{"status":`...)
		dst = appendString(dst, r.Status)
		switch {
		case chals != nil && r.Status == BatchChallenge:
			dst = append(dst, `,"challenge":"`...)
			var err error
			// base64url needs no JSON escaping.
			if dst, err = chals[i].AppendText(dst); err != nil {
				return dst, err
			}
			dst = append(dst, '"')
		case r.Challenge != "":
			dst = append(dst, `,"challenge":`...)
			dst = appendString(dst, r.Challenge)
		}
		if r.Difficulty != 0 {
			dst = append(dst, `,"difficulty":`...)
			dst = strconv.AppendInt(dst, int64(r.Difficulty), 10)
		}
		if r.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendString(dst, r.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendString appends s as a JSON string the way encoding/json writes
// it. Strings of printable ASCII that needs no escaping — every status
// and error this handler writes — are copied; anything else is quoted by
// encoding/json itself, HTML escaping included.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
