package resp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evilbloom/internal/core"
	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// ErrServerClosed is returned by Serve after Shutdown closes the listener.
var ErrServerClosed = errors.New("resp: server closed")

const (
	// maxPipelineBatch caps how many buffered commands one batch executes
	// before replies are flushed, bounding reply latency and per-connection
	// memory under an endless pipelined stream.
	maxPipelineBatch = 512
	// idleTimeout is the per-command read deadline; a connection silent for
	// this long is closed.
	idleTimeout = 5 * time.Minute
	// serverVersion is reported by HELLO.
	serverVersion = "1.0"
)

// Server serves the RESP plane as a codec over the command engine: it
// decodes commands, stages pipelined runs, and renders engine results and
// typed errors as RESP replies. All validation, identity, rate-limit
// charging, and dispatch happen in the engine, so a command spends exactly
// the same budget here as it would over HTTP. The zero value is not usable;
// construct with NewServer or NewEngineServer. Connections start under the
// anonymous RemoteAddr-host identity and may upgrade with AUTH (or HELLO ...
// AUTH) to an authenticated principal whose bucket is shared across planes.
type Server struct {
	eng *engine.Engine

	mu         sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]struct{}
	inShutdown atomic.Bool
	connWG     sync.WaitGroup
	connID     atomic.Int64
}

// NewServer returns a server over its own engine wrapping reg. Prefer
// NewEngineServer when the HTTP plane shares the process, so both codecs
// share one auth table.
func NewServer(reg *service.Registry) *Server {
	return NewEngineServer(engine.New(reg))
}

// NewEngineServer returns a server speaking for eng.
func NewEngineServer(eng *engine.Engine) *Server {
	return &Server{
		eng:       eng,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Engine returns the command engine the server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Serve accepts connections on ln until Shutdown. Like http.Server.Serve it
// blocks, returning ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	if s.inShutdown.Load() {
		return ErrServerClosed
	}
	s.mu.Lock()
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.inShutdown.Load() {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown stops accepting, nudges every live connection off its blocking
// read, and waits for in-flight batches to finish writing. Connections still
// open when ctx expires are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		// Wake readers blocked in ReadCommand; the connection loop sees
		// inShutdown and exits after flushing the batch in progress.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	h := s.newConnHandler(conn)
	for !h.closing && !s.inShutdown.Load() {
		n, err := h.readBatch()
		if err != nil {
			var pe *ProtocolError
			if errors.As(err, &pe) {
				// Framing is lost: report once, then close.
				writeError(h.w, "ERR "+pe.Error())
				h.w.Flush()
			}
			return
		}
		h.execBatch(h.batch[:n])
		if err := h.w.Flush(); err != nil {
			return
		}
	}
	if h.closing {
		h.w.Flush()
	}
}

func (s *Server) newConnHandler(conn net.Conn) *connHandler {
	return &connHandler{
		srv:       s,
		conn:      conn,
		r:         NewReader(conn),
		w:         bufio.NewWriterSize(conn, 32<<10),
		principal: engine.AnonymousFromRemoteAddr(conn.RemoteAddr().String()),
		proto:     2,
		id:        s.connID.Add(1),
		batch:     make([]Command, 1, 16),
	}
}

// readBatch waits for one command, then takes every command that has
// arrived whole behind it, up to maxPipelineBatch, without reading again:
// the buffer does not move while a batch is gathered, so all of its
// arguments stay valid through execution, and a command still on its way —
// or a malformed one — is left for the next call, after the whole ones in
// front of it have been answered.
func (h *connHandler) readBatch() (int, error) {
	h.conn.SetReadDeadline(time.Now().Add(idleTimeout))
	if h.srv.inShutdown.Load() {
		// Shutdown's wake-up may have landed before the deadline above
		// replaced it; from here on it cannot.
		return 0, ErrServerClosed
	}
	if err := h.r.ReadCommand(&h.batch[0]); err != nil {
		return 0, err
	}
	n := 0
	for {
		if len(h.batch[n].Args) > 0 { // empty lines and "*0" are skipped
			n++
		}
		if n == maxPipelineBatch {
			break
		}
		if n == len(h.batch) {
			h.batch = append(h.batch, Command{})
		}
		if !h.r.ReadBuffered(&h.batch[n]) {
			break
		}
	}
	return n, nil
}

// connHandler is the per-connection execution state. Scratch slices are
// reused across batches so the steady-state data path does not allocate.
type connHandler struct {
	srv       *Server
	conn      net.Conn
	r         *Reader
	w         *bufio.Writer
	principal engine.Principal
	proto     int
	id        int64
	closing   bool

	batch []Command
	g     group
}

// pend records one staged command's reply shape: how many of the run's
// items belong to it and whether it replies as an array (the M-variants).
// Charging outcomes live in the run's parallel Chunks.
type pend struct {
	n     int
	multi bool
}

// group is the codec half of run-collapsing: consecutive commands with the
// same kind and filter stage into one engine.Run, executed by ExecuteRun as
// one (or two) store passes with per-command charging.
type group struct {
	// filter outlives reset so that the next group on the same filter can
	// recognise its name without making a string of it again; only the
	// name is kept, ref is looked up afresh for every group.
	filter string
	ref    engine.FilterRef
	run    engine.Run
	pends  []pend
}

func (g *group) reset() {
	g.ref = engine.FilterRef{}
	g.run.Reset(0)
	g.pends = g.pends[:0]
}

// execBatch runs a batch of decoded commands in order. Item commands
// accumulate into the current group; any kind/filter switch, control
// command, or error flushes the group first so replies stay in command
// order.
func (h *connHandler) execBatch(cmds []Command) {
	h.g.reset()
	for i := range cmds {
		args := cmds[i].Args
		name := args[0]
		switch {
		case equalFold(name, "BF.ADD"):
			h.itemCommand(args, engine.RunAdd, false)
		case equalFold(name, "BF.MADD"):
			h.itemCommand(args, engine.RunAdd, true)
		case equalFold(name, "BF.EXISTS"):
			h.itemCommand(args, engine.RunTest, false)
		case equalFold(name, "BF.MEXISTS"):
			h.itemCommand(args, engine.RunTest, true)
		case equalFold(name, "CF.DEL"):
			h.itemCommand(args, engine.RunRemove, false)
		case equalFold(name, "CF.MDEL"):
			h.itemCommand(args, engine.RunRemove, true)
		default:
			h.flushGroup()
			h.controlCommand(args)
		}
	}
	h.flushGroup()
}

// itemCommand validates and stages one BF.ADD/BF.MADD/BF.EXISTS/BF.MEXISTS/
// CF.DEL/CF.MDEL. Arguments past the command word and filter name are the
// items; validation is the engine's, rendered with the -ERR prefix.
func (h *connHandler) itemCommand(args [][]byte, kind engine.RunKind, multi bool) {
	const minArgs = 2 // command word + filter name
	if len(args) < minArgs+1 || (!multi && len(args) != minArgs+1) {
		h.flushGroup()
		h.writeArityError(args[0])
		return
	}
	items := args[minArgs:]
	if err := engine.ValidateItems(items); err != nil {
		h.flushGroup()
		writeError(h.w, "ERR "+err.Error())
		return
	}
	sameFilter := string(args[1]) == h.g.filter // compared in place, no string is made
	if h.g.run.Kind != kind || !sameFilter {
		h.flushGroup()
		if !sameFilter {
			h.g.filter = string(args[1])
		}
		ref, err := h.srv.eng.Lookup(h.g.filter)
		if err != nil {
			writeError(h.w, fmt.Sprintf("ERR no such filter %q; BF.RESERVE it first", h.g.filter))
			return
		}
		h.g.ref = ref
		h.g.run.Reset(kind)
	}
	h.g.run.Items = append(h.g.run.Items, items...)
	h.g.run.AddChunk(len(items))
	h.g.pends = append(h.g.pends, pend{n: len(items), multi: multi})
}

// flushGroup executes the staged run through the engine — which charges
// each staged command in order, then makes one batched store pass — and
// renders its replies in command order.
func (h *connHandler) flushGroup() {
	g := &h.g
	if len(g.pends) == 0 {
		return
	}
	h.srv.eng.ExecuteRun(h.principal, g.ref, &g.run)
	idx := 0
	for i, p := range g.pends {
		if c := g.run.Chunks[i]; c.Busy {
			h.writeBusy(g.filter, c)
			continue
		}
		if g.run.Err != nil {
			// Whole-run failure (capability refusal on CF.DEL/CF.MDEL):
			// the bucket was charged before the capability check,
			// mirroring HTTP's charge-then-405 order.
			writeError(h.w, runErrorReply(g.run.Err))
			continue
		}
		writeVerdicts(h.w, g.run.Bools[idx:idx+p.n], p.multi)
		idx += p.n
	}
	g.reset()
}

// runErrorReply maps an engine error to its RESP reply class: capability
// refusals (deleting from a plain bloom backend) render as -WRONGTYPE —
// the operation does not fit the key's type, Redis's own class for that —
// budget exhaustion as -BUSY (the class writeBusy already uses on the
// batched path), and everything else as -ERR. The switch is exhaustive
// over engine.Kind — evillint's errmap analyzer fails the build if a new
// kind lacks an arm, so this plane cannot silently diverge from HTTP's
// status mapping.
func runErrorReply(err error) string {
	switch engine.Classify(err) {
	case engine.KindCapability:
		return "WRONGTYPE " + err.Error()
	case engine.KindBusy:
		return "BUSY " + err.Error()
	case engine.KindInvalid, engine.KindNotFound, engine.KindConflict,
		engine.KindUnauthorized, engine.KindTooLarge, engine.KindInternal:
		return "ERR " + err.Error()
	}
	return "ERR " + err.Error()
}

// writeVerdicts renders one item command's reply — ":1\r\n" or ":0\r\n" per
// item, behind an array header for the M-variants — straight into the
// writer's free space, one Write per command. A reply larger than that space
// goes out in as many pieces as it takes, so no reply size allocates.
func writeVerdicts(w *bufio.Writer, verdicts []bool, multi bool) {
	const perItem = len(":1\r\n")
	if w.Available() < maxHeaderLen+perItem && w.Flush() != nil {
		return // the writer keeps its error for the batch's final Flush
	}
	b := w.AvailableBuffer()
	if multi {
		b = append(b, '*')
		b = strconv.AppendInt(b, int64(len(verdicts)), 10)
		b = append(b, '\r', '\n')
	}
	for {
		n := min(len(verdicts), (cap(b)-len(b))/perItem)
		for _, v := range verdicts[:n] {
			digit := byte('0')
			if v {
				digit = '1'
			}
			b = append(b, ':', digit, '\r', '\n')
		}
		w.Write(b)
		if verdicts = verdicts[n:]; len(verdicts) == 0 || w.Flush() != nil {
			return
		}
		b = w.AvailableBuffer()
	}
}

// writeBusy is the RESP rendering of the HTTP plane's 429 + Retry-After.
func (h *connHandler) writeBusy(filter string, c engine.Chunk) {
	writeError(h.w, fmt.Sprintf(
		"BUSY mutation budget exhausted for filter %q (%d mutation(s) requested); retry after %ds",
		filter, c.N, c.RetrySecs))
}

func (h *connHandler) writeArityError(cmd []byte) {
	writeError(h.w, fmt.Sprintf("ERR wrong number of arguments for '%s' command", lowerASCII(cmd)))
}

// controlCommand executes the non-batchable commands.
func (h *connHandler) controlCommand(args [][]byte) {
	name := args[0]
	switch {
	case equalFold(name, "PING"):
		switch len(args) {
		case 1:
			writeSimple(h.w, "PONG")
		case 2:
			writeBulk(h.w, args[1])
		default:
			h.writeArityError(name)
		}
	case equalFold(name, "ECHO"):
		if len(args) != 2 {
			h.writeArityError(name)
			return
		}
		writeBulk(h.w, args[1])
	case equalFold(name, "AUTH"):
		h.auth(args)
	case equalFold(name, "HELLO"):
		h.hello(args)
	case equalFold(name, "COMMAND"):
		// Enough for redis-cli to start up: COMMAND COUNT answers a number,
		// everything else an empty array (redis-cli degrades gracefully).
		if len(args) >= 2 && equalFold(args[1], "COUNT") {
			writeInt(h.w, 14)
			return
		}
		writeArrayHeader(h.w, 0)
	case equalFold(name, "BF.RESERVE"):
		h.reserve(args)
	case equalFold(name, "BF.INFO"):
		h.info(args)
	case equalFold(name, "QUIT"):
		writeSimple(h.w, "OK")
		h.closing = true
	default:
		writeError(h.w, fmt.Sprintf("ERR unknown command '%s'", lowerASCII(name)))
	}
}

// auth handles AUTH name secret (Redis's two-argument form) and AUTH
// name:secret (the combined token an HTTP bearer carries). On success the
// connection's principal becomes the authenticated client, so every later
// mutation charges the cross-plane "auth:<name>" bucket instead of the
// transport host's.
func (h *connHandler) auth(args [][]byte) {
	if !h.srv.eng.AuthEnabled() {
		writeError(h.w, "ERR Client sent AUTH, but no auth tokens are configured")
		return
	}
	var p engine.Principal
	var err error
	switch len(args) {
	case 2:
		p, err = h.srv.eng.LoginToken(string(args[1]))
	case 3:
		p, err = h.srv.eng.Login(string(args[1]), string(args[2]))
	default:
		h.writeArityError(args[0])
		return
	}
	if err != nil {
		writeError(h.w, "ERR "+err.Error())
		return
	}
	h.principal = p
	writeSimple(h.w, "OK")
}

// hello handles HELLO [proto [AUTH name secret]].
func (h *connHandler) hello(args [][]byte) {
	if len(args) > 2 && !(len(args) == 5 && equalFold(args[2], "AUTH")) {
		writeError(h.w, "ERR unsupported HELLO options; use HELLO [2|3] [AUTH name secret]")
		return
	}
	if len(args) >= 2 {
		v, err := parseInt(args[1])
		if err != nil || (v != 2 && v != 3) {
			writeError(h.w, "NOPROTO unsupported protocol version")
			return
		}
		if len(args) == 5 {
			p, err := h.srv.eng.Login(string(args[3]), string(args[4]))
			if err != nil {
				writeError(h.w, "ERR "+err.Error())
				return
			}
			h.principal = p
		}
		h.proto = int(v)
	}
	writeMapHeader(h.w, 6, h.proto)
	writeBulkString(h.w, "server")
	writeBulkString(h.w, "evilbloom")
	writeBulkString(h.w, "version")
	writeBulkString(h.w, serverVersion)
	writeBulkString(h.w, "proto")
	writeInt(h.w, int64(h.proto))
	writeBulkString(h.w, "id")
	writeInt(h.w, h.id)
	writeBulkString(h.w, "mode")
	writeBulkString(h.w, "standalone")
	writeBulkString(h.w, "role")
	writeBulkString(h.w, "master")
}

// reserve handles BF.RESERVE key error_rate capacity [option value]...
// error_rate and capacity may be 0 to take the service defaults; options
// pin explicit geometry (VARIANT, MODE, SHARDS, SHARDBITS, HASHES, SEED,
// COUNTERWIDTH, OVERFLOW).
func (h *connHandler) reserve(args [][]byte) {
	if len(args) < 4 || len(args)%2 != 0 {
		h.writeArityError(args[0])
		return
	}
	name := string(args[1])
	er, err := strconv.ParseFloat(string(args[2]), 64)
	if err != nil || er < 0 || er >= 1 {
		writeError(h.w, "ERR bad error rate (want a float in [0, 1); 0 takes the default)")
		return
	}
	capacity, err := strconv.ParseUint(string(args[3]), 10, 64)
	if err != nil {
		writeError(h.w, "ERR bad capacity (want a non-negative integer; 0 takes the default)")
		return
	}
	cfg := service.Config{TargetFPR: er, Capacity: capacity}
	for i := 4; i < len(args); i += 2 {
		opt, val := args[i], string(args[i+1])
		switch {
		case equalFold(opt, "VARIANT"):
			if cfg.Variant, err = service.ParseVariant(val); err != nil {
				writeError(h.w, "ERR "+err.Error())
				return
			}
		case equalFold(opt, "MODE"):
			if cfg.Mode, err = service.ParseMode(val); err != nil {
				writeError(h.w, "ERR "+err.Error())
				return
			}
		case equalFold(opt, "SHARDS"):
			if cfg.Shards, err = strconv.Atoi(val); err != nil {
				writeError(h.w, "ERR bad SHARDS value")
				return
			}
		case equalFold(opt, "SHARDBITS"):
			if cfg.ShardBits, err = strconv.ParseUint(val, 10, 64); err != nil {
				writeError(h.w, "ERR bad SHARDBITS value")
				return
			}
		case equalFold(opt, "HASHES"):
			if cfg.HashCount, err = strconv.Atoi(val); err != nil {
				writeError(h.w, "ERR bad HASHES value")
				return
			}
		case equalFold(opt, "SEED"):
			if cfg.Seed, err = strconv.ParseUint(val, 10, 64); err != nil {
				writeError(h.w, "ERR bad SEED value")
				return
			}
		case equalFold(opt, "COUNTERWIDTH"):
			if cfg.CounterWidth, err = strconv.Atoi(val); err != nil {
				writeError(h.w, "ERR bad COUNTERWIDTH value")
				return
			}
		case equalFold(opt, "OVERFLOW"):
			switch val {
			case "wrap":
				cfg.Overflow = core.Wrap
			case "saturate":
				cfg.Overflow = core.Saturate
			default:
				writeError(h.w, "ERR bad OVERFLOW value (want wrap or saturate)")
				return
			}
		case equalFold(opt, "EXPANSION"), equalFold(opt, "NONSCALING"):
			// RedisBloom scaling knobs; this store is fixed-size.
			writeError(h.w, "ERR scaling filters are not supported; size with capacity or SHARDBITS")
			return
		default:
			writeError(h.w, fmt.Sprintf("ERR unknown BF.RESERVE option '%s'", lowerASCII(opt)))
			return
		}
	}
	if _, err := h.srv.eng.CreateFilter(name, cfg); err != nil {
		writeError(h.w, "ERR "+err.Error())
		return
	}
	writeSimple(h.w, "OK")
}

// info handles BF.INFO key: a flat field/value array. Naive filters publish
// their seed — the same deliberate disclosure the HTTP stats endpoint makes,
// which the chosen-insertion adversary needs to build its shadow view.
func (h *connHandler) info(args [][]byte) {
	if len(args) != 2 {
		h.writeArityError(args[0])
		return
	}
	name := string(args[1])
	ref, err := h.srv.eng.Lookup(name)
	if err != nil {
		writeError(h.w, fmt.Sprintf("ERR no such filter %q", name))
		return
	}
	stats := h.srv.eng.Stats(ref).Stats
	desc := h.srv.eng.Describe(ref)
	pairs := 10
	if desc.Seed != nil {
		pairs++
	}
	writeMapHeader(h.w, pairs, h.proto)
	writeBulkString(h.w, "name")
	writeBulkString(h.w, name)
	writeBulkString(h.w, "variant")
	writeBulkString(h.w, stats.Variant)
	writeBulkString(h.w, "mode")
	writeBulkString(h.w, stats.Mode)
	writeBulkString(h.w, "shards")
	writeInt(h.w, int64(stats.Shards))
	writeBulkString(h.w, "k")
	writeInt(h.w, int64(stats.K))
	writeBulkString(h.w, "shard_bits")
	writeInt(h.w, int64(stats.ShardBits))
	writeBulkString(h.w, "count")
	writeInt(h.w, int64(stats.Count))
	writeBulkString(h.w, "weight")
	writeInt(h.w, int64(stats.Weight))
	writeBulkString(h.w, "fill")
	writeBulkFloat(h.w, stats.Fill)
	writeBulkString(h.w, "estimated_fpr")
	writeBulkFloat(h.w, stats.FPR)
	if desc.Seed != nil {
		writeBulkString(h.w, "seed")
		writeInt(h.w, int64(*desc.Seed))
	}
}

// equalFold reports ASCII case-insensitive equality of b against the
// uppercase constant s, without allocating.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

func lowerASCII(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}
