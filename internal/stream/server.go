package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// Server exposes an Engine over TCP: one length-prefixed JSON frame per
// request, one per reply, any number of sessions multiplexed over any
// number of connections. It is the repository's one network transport
// for online detection: framed (so corrupt input fails fast and
// fuzzably), versioned, and deadline-guarded so hung peers cannot wedge
// a serve goroutine.
type Server struct {
	eng *Engine
	ln  net.Listener

	idleTimeout  time.Duration
	writeTimeout time.Duration
	logger       *slog.Logger
	flight       *obs.Flight

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool // set by Close under mu; acceptLoop refuses later connections
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerIdleTimeout bounds peer silence between frames; zero means no
// limit.
func WithServerIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithServerWriteTimeout bounds reply writes to a peer that stopped
// reading; zero means no limit.
func WithServerWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithServerLogger routes the server's structured connection-lifecycle
// logs (debug level) to l; the default discards them.
func WithServerLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithServerFlight leaves transport-level records (connection drops,
// with the peer address in the detail) in the flight recorder.
func WithServerFlight(f *obs.Flight) ServerOption {
	return func(s *Server) { s.flight = f }
}

// discardLogger is the default: a handler whose level gate rejects
// every record, so disabled logging costs one Enabled call.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// ListenAndServe starts a server for the engine on addr (e.g.
// "127.0.0.1:0"). The engine's lifecycle stays with the caller: Close
// stops the listener and connections but not the engine.
func ListenAndServe(addr string, eng *Engine, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen: %w", err)
	}
	s := &Server{
		eng:          eng,
		ln:           ln,
		writeTimeout: 30 * time.Second,
		logger:       discardLogger(),
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address to hand to clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes every connection. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.closeErr = s.ln.Close()
		// Snapshot under the lock, close outside it: net.Conn.Close is
		// I/O and must not run while holding s.mu (serve goroutines take
		// the same lock to deregister, and a stalled close would wedge
		// them behind it).
		s.mu.Lock()
		s.closed = true
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			//lint:ignore maporder close order of the surviving connections is immaterial; each close is independent and nothing downstream observes the sequence
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue // transient accept error: keep serving
			}
		}
		// Close marks the server closed under the same lock it
		// snapshots the connections under, so a connection accepted
		// around that moment is either in the snapshot or refused here
		// — never served with nobody left to close it.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	peer := conn.RemoteAddr().String()
	s.logger.Debug("connection accepted", "peer", peer)
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.flight.Record(obs.FlightRecord{
			Shard: -1, Proc: -1, Stage: obs.StageDisconnect, Detail: "peer " + peer,
		})
		s.logger.Debug("connection closed", "peer", peer)
	}()
	// One decoder per connection: it reuses its frame buffer across
	// frames. Each request is charged its own framed size and each reply
	// its encoded size, so frames a client writes back to back are
	// attributed exactly, whatever the buffered reader prefetched.
	var dec frameDecoder
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				return // connection already dead; without the deadline a silent peer would hold the goroutine forever
			}
		}
		req, in, err := dec.next(br)
		if err != nil {
			// A peer that hung up (between frames or mid-frame) and I/O
			// errors just drop the connection: nobody is left to read a
			// reply. Version, JSON, oversize and empty-frame errors get one
			// best-effort complaint.
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &ne) {
				s.reply(conn, bw, Response{V: ProtocolVersion, Error: err.Error()})
			}
			return
		}
		if req.Type == "close" {
			// Closing deletes the session's scope; charge the request
			// bytes while it still exists (the reply goes unattributed).
			s.eng.AttributeBytes(req.Session, int64(in), 0)
		}
		resp := s.handle(req)
		out, ok := s.reply(conn, bw, resp)
		if req.Type != "close" {
			s.eng.AttributeBytes(req.Session, int64(in), int64(out))
		}
		if !ok {
			return
		}
	}
}

// reply frames one response and returns its size on the wire; ok is
// false when the connection is dead.
func (s *Server) reply(conn net.Conn, bw *bufio.Writer, resp Response) (size int, ok bool) {
	if s.writeTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
			return 0, false // connection already dead; an unarmed deadline would let a stalled peer wedge the write
		}
	}
	size, err := encodeResponse(bw, resp)
	return size, err == nil && bw.Flush() == nil
}

// handle executes one request against the engine.
func (s *Server) handle(req Request) Response {
	resp := Response{V: ProtocolVersion}
	fail := func(err error) Response {
		resp.Error = err.Error()
		return resp
	}
	switch req.Type {
	case "open":
		if req.Spec == nil {
			return fail(errors.New("stream: open without spec"))
		}
		if err := s.eng.Open(req.Session, *req.Spec); err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Possibly, _ = s.eng.Possibly(req.Session)
	case "append":
		if err := s.eng.Append(req.Session, req.Events); err != nil {
			return fail(err)
		}
		resp.OK = true
		// Detection is asynchronous; the latched flag may trail the
		// events just appended, but a true answer is always final and a
		// lagging false is refined by the next append or a query.
		resp.Possibly, _ = s.eng.Possibly(req.Session)
	case "query":
		st, updates, err := s.eng.QueryUpdates(req.Session)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Possibly = st.Possibly
		resp.Stats = &st
		resp.Updates = updates
	case "register":
		if req.Register == nil {
			return fail(errors.New("stream: register without predicate spec"))
		}
		updates, err := s.eng.Register(req.Session, *req.Register)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Updates = updates
		resp.Possibly, _ = s.eng.Possibly(req.Session)
	case "unregister":
		if req.Predicate == "" {
			return fail(errors.New("stream: unregister without predicate id"))
		}
		if err := s.eng.Unregister(req.Session, req.Predicate); err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Possibly, _ = s.eng.Possibly(req.Session)
	case "close":
		verdict, preds, err := s.eng.ClosePredicates(req.Session)
		if err != nil {
			return fail(err)
		}
		resp.OK = true
		resp.Possibly = verdict.Possibly
		resp.Verdict = &verdict
		resp.Predicates = preds
	default:
		return fail(fmt.Errorf("stream: unknown request type %q", req.Type))
	}
	return resp
}
