package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
)

// rawClient is a keep-alive HTTP/1.1 client over one TCP connection. It
// writes request bytes built before the window and parses replies into a
// buffer it owns, so a round trip allocates nothing on the client side:
// the heap traffic the window measures is the server's. It understands
// exactly what the service sends: a status line, headers and a body
// framed by Content-Length.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
	wire int64 // bytes written plus bytes read
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), body: make([]byte, 64<<10)}, nil
}

func (c *rawClient) close() { c.conn.Close() }

var (
	errFraming = errors.New("reply without Content-Length framing")
	errTooBig  = errors.New("reply body larger than the client buffer")
)

// do sends one request and returns the reply's status and body; the body
// aliases the client's buffer until the next call.
func (c *rawClient) do(req []byte) (int, []byte, error) {
	n, err := c.conn.Write(req)
	c.wire += int64(n)
	if err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	c.wire += int64(len(line))
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen := -1
	for {
		line, err = c.br.ReadSlice('\n')
		c.wire += int64(len(line))
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			if clen, ok = atoi(bytes.TrimSpace(line[len(cl):])); !ok {
				return 0, nil, fmt.Errorf("bad header %q", line)
			}
		}
	}
	if clen < 0 {
		return 0, nil, errFraming
	}
	if clen > len(c.body) {
		return 0, nil, errTooBig
	}
	body := c.body[:clen]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	c.wire += int64(clen)
	return status, body, nil
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

// postRequest builds the bytes of one POST carrying a JSON body.
func postRequest(path string, body []byte) []byte {
	return append(fmt.Appendf(nil,
		"POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body)), body...)
}

// reply is the part of a service reply the checks read: the op envelope's
// fields and, for /v1/txn, the per-op results.
type reply struct {
	ok, found, changed bool
	moved              int64
	failedOp           int64 // -1 when absent
	results            [8]txnResult
	nres               int
}

type txnResult struct{ found, changed bool }

// scanReply decodes a reply body into r without allocating. It accepts
// the JSON the service writes: one object whose values are booleans,
// integers, strings, or, under "results", an array of flat objects; it
// skips the fields the checks do not read.
func scanReply(b []byte, r *reply) error {
	*r = reply{failedOp: -1}
	s := jscan{b: b}
	return s.object(func(key []byte) error {
		switch string(key) {
		case "ok":
			return s.boolean(&r.ok)
		case "found":
			return s.boolean(&r.found)
		case "changed":
			return s.boolean(&r.changed)
		case "moved":
			return s.integer(&r.moved)
		case "failed_op":
			return s.integer(&r.failedOp)
		case "results":
			return s.array(func() error {
				if r.nres == len(r.results) {
					return errJSON
				}
				res := &r.results[r.nres]
				r.nres++
				return s.object(func(key []byte) error {
					switch string(key) {
					case "found":
						return s.boolean(&res.found)
					case "changed":
						return s.boolean(&res.changed)
					}
					return s.skip()
				})
			})
		}
		return s.skip()
	})
}

// jscan is a minimal JSON scanner over a byte slice.
type jscan struct {
	b []byte
	i int
}

var errJSON = errors.New("malformed reply JSON")

func (s *jscan) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\r' || s.b[s.i] == '\t') {
		s.i++
	}
}

func (s *jscan) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *jscan) expect(c byte) error {
	if s.peek() != c {
		return errJSON
	}
	s.i++
	return nil
}

// str scans a string and returns its raw contents (escapes left as is).
func (s *jscan) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		default:
			s.i++
		}
	}
	return nil, errJSON
}

func (s *jscan) object(field func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return errJSON
		}
	}
}

func (s *jscan) array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return errJSON
		}
	}
}

func (s *jscan) boolean(v *bool) error {
	s.ws()
	switch {
	case bytes.HasPrefix(s.b[s.i:], []byte("true")):
		*v = true
		s.i += 4
	case bytes.HasPrefix(s.b[s.i:], []byte("false")):
		*v = false
		s.i += 5
	default:
		return errJSON
	}
	return nil
}

func (s *jscan) integer(v *int64) error {
	s.ws()
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	start := s.i
	var n int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start {
		return errJSON
	}
	if neg {
		n = -n
	}
	*v = n
	return nil
}

// skip scans past one value of any kind.
func (s *jscan) skip() error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{':
		return s.object(func([]byte) error { return s.skip() })
	case c == '[':
		return s.array(s.skip)
	case c == 't' || c == 'f':
		var b bool
		return s.boolean(&b)
	case c == 'n' && bytes.HasPrefix(s.b[s.i:], []byte("null")):
		s.i += 4
		return nil
	default:
		var n int64
		return s.integer(&n)
	}
}
