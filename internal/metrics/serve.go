package metrics

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The /metrics endpoint is a minimal HTTP/1.1 server on unix sockets
// made with syscall alone. Importing net (whose cgo resolver links libc
// dynamically) and net/http (TLS, x509 and HTTP/2 package inits) would
// cost every rostracer start more than serving a scrape ever does; see
// "Process start-up" in docs/PERFORMANCE.md. Every socket is
// non-blocking and wrapped in an os.File, so accepts and reads park
// their goroutines on the runtime poller and no OS thread is held per
// connection.

const (
	// connTimeout bounds a connection's whole life: reading the request
	// head, rendering the exposition and writing the response.
	connTimeout = 10 * time.Second
	// maxHead bounds the request line plus headers.
	maxHead = 8 << 10
	// maxAcceptBackoff caps the pause after a failed accept (EMFILE,
	// ENFILE), doubling from 5ms as http.Serve does.
	maxAcceptBackoff = time.Second
)

// Serve listens on addr and serves, for the life of the process, the
// exposition of the registry reg returns at each request for /metrics
// (a query string is allowed; an empty body while reg returns nil) and
// 404 for every other path. addr is ":PORT" (every interface: one IPv6
// socket that accepts IPv4 too, or IPv4 alone on a host without IPv6),
// "localhost:PORT" (127.0.0.1), or a numeric IPv4 or bracketed IPv6
// address with a port. Serve returns the bound address, with the port
// the kernel chose when PORT is 0. It needs a unix socket API.
func Serve(addr string, reg func() *Registry) (bound string, err error) {
	ip, port, err := parseListenAddr(addr)
	if err != nil {
		return "", err
	}
	dualStack := !ip.IsValid()
	if dualStack {
		ip = netip.IPv6Unspecified()
	}
	lf, boundPort, err := listen(ip, port, dualStack)
	if dualStack && (errors.Is(err, syscall.EAFNOSUPPORT) || errors.Is(err, syscall.EADDRNOTAVAIL)) {
		ip = netip.IPv4Unspecified()
		lf, boundPort, err = listen(ip, port, false)
	}
	if err != nil {
		return "", fmt.Errorf("metrics: listen on %s: %w", addr, err)
	}
	go acceptLoop(lf, reg)
	return netip.AddrPortFrom(ip, boundPort).String(), nil
}

// parseListenAddr splits addr into the address to bind (the zero Addr
// for ":PORT", meaning every interface) and the port.
func parseListenAddr(addr string) (netip.Addr, uint16, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return netip.Addr{}, 0, addrFormError(addr)
	}
	host := addr[:i]
	if host != "" && host != "localhost" {
		ap, err := netip.ParseAddrPort(addr)
		if err != nil || ap.Addr().Zone() != "" {
			return netip.Addr{}, 0, addrFormError(addr)
		}
		return ap.Addr().Unmap(), ap.Port(), nil
	}
	port, err := strconv.ParseUint(addr[i+1:], 10, 16)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("metrics: listen address %q: bad port %q", addr, addr[i+1:])
	}
	if host == "localhost" {
		return netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port), nil
	}
	return netip.Addr{}, uint16(port), nil
}

func addrFormError(addr string) error {
	return fmt.Errorf("metrics: listen address %q: want :PORT, localhost:PORT, IPv4:PORT or [IPv6]:PORT", addr)
}

// listen opens a non-blocking TCP listener on ip:port and returns it
// with its bound port. dualStack lets an IPv6 socket accept IPv4 too.
func listen(ip netip.Addr, port uint16, dualStack bool) (*os.File, uint16, error) {
	family := syscall.AF_INET6
	var sa syscall.Sockaddr = &syscall.SockaddrInet6{Port: int(port), Addr: ip.As16()}
	if ip.Is4() {
		family = syscall.AF_INET
		sa = &syscall.SockaddrInet4{Port: int(port), Addr: ip.As4()}
	}
	// Socket and CloseOnExec under ForkLock, so that no concurrent
	// fork inherits the fd, as net does where SOCK_CLOEXEC is missing.
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, 0, os.NewSyscallError("socket", err)
	}
	bound, err := bindListen(fd, sa, dualStack)
	if err != nil {
		syscall.Close(fd)
		return nil, 0, err
	}
	return os.NewFile(uintptr(fd), "metrics-listener"), bound, nil
}

func bindListen(fd int, sa syscall.Sockaddr, dualStack bool) (uint16, error) {
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		return 0, os.NewSyscallError("setsockopt", err)
	}
	if dualStack {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			return 0, os.NewSyscallError("setsockopt", err)
		}
	}
	if err := syscall.Bind(fd, sa); err != nil {
		return 0, os.NewSyscallError("bind", err)
	}
	if err := syscall.Listen(fd, syscall.SOMAXCONN); err != nil {
		return 0, os.NewSyscallError("listen", err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		return 0, os.NewSyscallError("setnonblock", err)
	}
	got, err := syscall.Getsockname(fd)
	if err != nil {
		return 0, os.NewSyscallError("getsockname", err)
	}
	switch a := got.(type) {
	case *syscall.SockaddrInet4:
		return uint16(a.Port), nil
	case *syscall.SockaddrInet6:
		return uint16(a.Port), nil
	}
	return 0, fmt.Errorf("getsockname: unexpected %T", got)
}

// acceptLoop accepts connections on lf, each served on its own
// goroutine, until the listener fails.
func acceptLoop(lf *os.File, reg func() *Registry) {
	rc, err := lf.SyscallConn()
	if err != nil {
		return
	}
	var backoff time.Duration
	for {
		var nfd int
		var aerr error
		err := rc.Read(func(fd uintptr) bool {
			syscall.ForkLock.RLock()
			nfd, _, aerr = syscall.Accept(int(fd))
			if aerr == nil {
				syscall.CloseOnExec(nfd)
			}
			syscall.ForkLock.RUnlock()
			return aerr != syscall.EAGAIN // EAGAIN: park until a connection is pending
		})
		switch {
		case err != nil:
			return
		case aerr == syscall.EINTR || aerr == syscall.ECONNABORTED:
			continue
		case aerr != nil:
			backoff = min(max(2*backoff, 5*time.Millisecond), maxAcceptBackoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		go serveConn(nfd, reg)
	}
}

// serveConn answers one request on fd and closes it.
func serveConn(fd int, reg func() *Registry) {
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return
	}
	c := os.NewFile(uintptr(fd), "metrics-conn")
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(connTimeout)); err != nil {
		return
	}
	line, err := readHead(c)
	if err != nil {
		return // the client went away, stalled or sent a head past maxHead
	}
	c.Write(response(line, reg)) // error ignored: the connection closes either way
}

// readHead reads the request head (request line and headers, up to the
// blank line) and returns its request line.
func readHead(c *os.File) (string, error) {
	buf := make([]byte, maxHead)
	n := 0
	for {
		if end := bytes.Index(buf[:n], []byte("\r\n\r\n")); end >= 0 {
			line, _, _ := bytes.Cut(buf[:end], []byte("\r\n"))
			return string(line), nil
		}
		if n == maxHead {
			return "", errors.New("request head too large")
		}
		m, err := c.Read(buf[n:])
		if err != nil {
			return "", err
		}
		n += m
	}
}

// response renders the answer to a request line: the exposition for
// /metrics, 404 for anything else.
func response(line string, reg func() *Registry) []byte {
	method, rest, _ := strings.Cut(line, " ")
	target, _, _ := strings.Cut(rest, " ")
	path, _, _ := strings.Cut(target, "?")
	status, ctype := "404 Not Found", "text/plain; charset=utf-8"
	var body bytes.Buffer
	if path == "/metrics" {
		status, ctype = "200 OK", "text/plain; version=0.0.4; charset=utf-8"
		if r := reg(); r != nil {
			r.WritePrometheus(&body)
		}
	} else {
		body.WriteString("404 page not found\n")
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", status, ctype, body.Len())
	if method != "HEAD" {
		out.Write(body.Bytes())
	}
	return out.Bytes()
}
