package fed

// The shard transport: one HTTP/1.1 exchange per shard call, run
// entirely on the calling goroutine over a pooled keep-alive TCP
// connection — no per-connection goroutines, no header maps. It reads
// what shard servers answer: a status line and a body framed by
// Content-Length or chunked encoding. Any other reply is a protocol
// error, retryable like a network error.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	maxIdlePerEndpoint = 32               // idle connections kept per endpoint
	idleTimeout        = 90 * time.Second // below serve's 2-minute IdleTimeout
	maxJSONReply       = 8 << 20          // cap on a JSON reply body
	maxBatchReply      = 256 << 20        // cap on a binary batch reply body
)

// connPool is one endpoint's address and idle connections, newest last.
type connPool struct {
	addr, host, prefix string

	mu     sync.Mutex
	idle   []*conn
	closed bool // the endpoint left the peer set
}

type conn struct {
	nc        net.Conn
	br        *bufio.Reader
	wbuf      []byte
	idleSince time.Time
}

// newConnPool parses a validated http:// base URL.
func newConnPool(base string) *connPool {
	u, _ := url.Parse(base)
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &connPool{addr: addr, host: u.Host, prefix: strings.TrimSuffix(u.EscapedPath(), "/")}
}

// errIdentity marks a reply from a server of another build or shard.
var errIdentity = errors.New("another build or shard")

// exchange sends one request and returns the body (at most limit
// bytes) of a 200 reply. A reply whose X-Summary-Version is not version
// (when non-zero) is an errIdentity, whatever its status; any other
// non-200 reply is a *statusError. The context's deadline becomes the
// connection's, and cancelling the context forces a past deadline,
// which unblocks a read or write at once. A connection that errored,
// was cancelled or answered "Connection: close" is closed, never
// pooled. A pooled connection that fails before the first reply byte
// was most likely closed by the server while idle: it is redialled
// once, at no cost to the retry budget.
func (p *connPool) exchange(ctx context.Context, method, path string, body []byte, limit int64, version uint64) ([]byte, error) {
	for fresh := false; ; fresh = true {
		c, pooled, err := p.take(ctx, fresh)
		if err != nil {
			return nil, err
		}
		deadline, _ := ctx.Deadline()
		c.nc.SetDeadline(deadline)
		stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) })
		status, resp, ver, keep, replied, err := c.roundTrip(p, method, path, body, limit)
		if stop() && keep && err == nil && c.br.Buffered() == 0 {
			p.put(c)
		} else {
			c.nc.Close()
		}
		switch {
		case err == nil && version != 0 && ver != version:
			return nil, fmt.Errorf("fed: reply of summary version %d, want %d: %w", ver, version, errIdentity)
		case err == nil && status != http.StatusOK:
			return nil, &statusError{status: status, msg: errMessage(resp)}
		case err != nil && ctx.Err() != nil:
			return nil, ctx.Err()
		case err == nil || !pooled || replied:
			return resp, err
		}
	}
}

// take pops the newest idle connection, dropping any idle for longer
// than idleTimeout, or dials a new one (always, when fresh).
func (p *connPool) take(ctx context.Context, fresh bool) (c *conn, pooled bool, err error) {
	p.mu.Lock()
	for !fresh && len(p.idle) > 0 {
		c, p.idle = p.idle[len(p.idle)-1], p.idle[:len(p.idle)-1]
		if time.Since(c.idleSince) <= idleTimeout {
			p.mu.Unlock()
			return c, true, nil
		}
		c.nc.Close()
	}
	p.mu.Unlock()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, false, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, false, nil
}

func (p *connPool) put(c *conn) {
	c.idleSince = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) == maxIdlePerEndpoint {
		c.nc.Close()
		return
	}
	p.idle = append(p.idle, c)
}

// closeIdle retires the pool of an endpoint that left the peer set.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.nc.Close()
	}
	p.idle, p.closed = nil, true
}

// roundTrip writes one request in one Write and reads the reply;
// replied reports whether any byte of it arrived.
func (c *conn) roundTrip(p *connPool, method, path string, body []byte, limit int64) (status int, resp []byte, version uint64, keep, replied bool, err error) {
	b := append(append(append(append(c.wbuf[:0], method...), ' '), p.prefix...), path...)
	b = append(append(b, " HTTP/1.1\r\nHost: "...), p.host...)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(body)), 10)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/octet-stream"...)
	}
	c.wbuf = append(append(b, "\r\n\r\n"...), body...)
	if _, err = c.nc.Write(c.wbuf); err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return 0, nil, 0, false, false, err
	}
	status, resp, version, keep, err = readResponse(c.br, limit)
	return status, resp, version, keep, true, err
}

// readResponse reads one HTTP/1.1 reply: the status, the body (at most
// limit bytes, and never a larger allocation than the cap allows), its
// X-Summary-Version (0 when absent or malformed), and whether the
// connection may carry another exchange.
func readResponse(br *bufio.Reader, limit int64) (status int, body []byte, version uint64, keepAlive bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, nil, 0, false, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || (len(line) > 12 && line[12] != ' ') {
		return 0, nil, 0, false, fmt.Errorf("fed: malformed status line %.40q", line)
	}
	code, err := strconv.ParseUint(string(line[9:12]), 10, 10)
	if err != nil {
		return 0, nil, 0, false, fmt.Errorf("fed: malformed status line %.40q", line)
	}
	keepAlive, length, chunked := true, int64(-1), false
	for {
		if line, err = readLine(br); err != nil || len(line) == 0 {
			break
		}
		// Short header names and values convert to strings on the stack.
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case !ok:
			err = fmt.Errorf("fed: malformed header line %.40q", line)
		case strings.EqualFold(string(name), "Content-Length"):
			n, perr := strconv.ParseUint(string(value), 10, 62)
			if perr != nil || length >= 0 {
				err = fmt.Errorf("fed: bad Content-Length in %.40q", line)
			}
			length = int64(n)
		case strings.EqualFold(string(name), "Transfer-Encoding"):
			if !strings.EqualFold(string(value), "chunked") || chunked {
				err = fmt.Errorf("fed: unsupported Transfer-Encoding in %.40q", line)
			}
			chunked = true
		case strings.EqualFold(string(name), "Connection"):
			keepAlive = keepAlive && !strings.EqualFold(string(value), "close")
		case strings.EqualFold(string(name), "X-Summary-Version"):
			version, _ = strconv.ParseUint(string(value), 10, 64)
		}
		if err != nil {
			break
		}
	}
	switch {
	case err != nil:
	case chunked == (length >= 0):
		err = errors.New("fed: reply framed by neither or both of Content-Length and chunked encoding")
	case length > limit:
		err = fmt.Errorf("fed: reply of %d bytes exceeds the %d-byte cap", length, limit)
	case !chunked:
		body = make([]byte, length)
		_, err = io.ReadFull(br, body)
	default:
		body, err = io.ReadAll(io.LimitReader(httputil.NewChunkedReader(br), limit+1))
		if err == nil && int64(len(body)) > limit {
			err = fmt.Errorf("fed: chunked reply exceeds the %d-byte cap", limit)
		}
		for err == nil { // the trailer section, up to its empty line
			if line, err = readLine(br); len(line) == 0 {
				break
			}
		}
	}
	if err != nil {
		return 0, nil, 0, false, err
	}
	return int(code), body, version, keepAlive, nil
}

// readLine reads one CRLF- or LF-terminated line without its ending; a
// line longer than the reader's buffer is an error.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("fed: reading reply: %w", err)
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}
