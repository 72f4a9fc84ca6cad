// Package httpapi is the HTTP/JSON codec over the command engine: it
// decodes requests into engine commands, renders typed results as the
// frozen v1/v2 wire shapes, and maps engine error kinds to status codes.
// No validation, identity resolution, rate-limit charge or store access
// happens here — that is the engine's pipeline, shared with the RESP
// plane, so the two surfaces cannot drift apart.
package httpapi

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"evilbloom/internal/core"
	"evilbloom/internal/engine"
	"evilbloom/internal/service"
)

// ---------------------------------------------------------------------------
// Wire structs. The v1 shapes are frozen — /v1/* promises byte-identical
// responses to the original single-filter API, so these structs must not
// grow fields. /v2 has its own shapes below.

// itemRequest is the body of the add, test and remove item endpoints.
type itemRequest struct {
	Item string `json:"item"`
}

// batchRequest is the body of the batch endpoints.
type batchRequest struct {
	Items []string `json:"items"`
}

// The item routes' responses have no struct: itembody.go appends their
// frozen bytes directly ({"added":n,"count":c}, {"present":b},
// {"present":[b…]}, {"removed":n,"count":c}, {"removed":[b…],"count":c}).

// compactResponse answers /v2/.../compact with the new snapshot generation.
type compactResponse struct {
	Compacted  bool   `json:"compacted"`
	Generation uint64 `json:"generation"`
}

// RouteResponse answers /v2/.../route: the §7 routing decision for one item
// — serve locally, probe a sibling whose digest claims it, or go to the
// origin. A probe sent because of a polluted or merely unlucky digest is
// the wasted round trip the paper's attack inflates.
type RouteResponse struct {
	// Local reports whether this node's own filter claims the item.
	Local bool `json:"local"`
	// Verdict is "local", "peer" or "origin".
	Verdict string `json:"verdict"`
	// Peer names the first claiming sibling when Verdict is "peer".
	Peer string `json:"peer,omitempty"`
	// Peers holds every sibling's individual answer, in peer order.
	Peers []service.PeerClaim `json:"peers"`
	// Claiming is how many siblings claim the item; Quorum is how many it
	// takes for a "peer" verdict (-route-quorum, default 1).
	Claiming int `json:"claiming"`
	Quorum   int `json:"quorum"`
}

// peersResponse answers GET /v2/.../peers and POST /v2/.../peers/refresh.
type peersResponse struct {
	Peers []service.PeerStatus `json:"peers"`
}

// digestPushResponse answers POST /v2/.../digest with the stored peer entry.
type digestPushResponse struct {
	Imported bool               `json:"imported"`
	Peer     service.PeerStatus `json:"peer"`
}

// peerTokenRevokeResponse answers DELETE /v2/peer-tokens/{name}.
type peerTokenRevokeResponse struct {
	Revoked        string `json:"revoked"`
	DigestsEvicted int    `json:"digests_evicted"`
}

// InfoResponse answers /v1/info: the public parameters of the serving
// filter. In naive mode that includes the index seed — the paper's threat
// model ("the implementation of the Bloom filter is public and known") made
// concrete. In hardened mode Seed is omitted and Algorithm names the keyed
// scheme; the keys themselves never leave the server. Frozen v1 shape; the
// v2 equivalent is FilterInfo.
type InfoResponse struct {
	Mode      string  `json:"mode"`
	Shards    int     `json:"shards"`
	K         int     `json:"k"`
	ShardBits uint64  `json:"shard_bits"`
	Algorithm string  `json:"algorithm"`
	Seed      *uint64 `json:"seed,omitempty"`
}

// statsV1 and shardStatsV1 freeze the /v1/stats wire shape (no variant or
// overflow fields, which post-date v1).
type statsV1 struct {
	Mode      string         `json:"mode"`
	Shards    int            `json:"shards"`
	K         int            `json:"k"`
	ShardBits uint64         `json:"shard_bits"`
	Count     uint64         `json:"count"`
	Weight    uint64         `json:"weight"`
	Fill      float64        `json:"fill"`
	FPR       float64        `json:"estimated_fpr"`
	PerShard  []shardStatsV1 `json:"per_shard"`
}

type shardStatsV1 struct {
	Shard  int     `json:"shard"`
	Count  uint64  `json:"count"`
	Weight uint64  `json:"weight"`
	Fill   float64 `json:"fill"`
	FPR    float64 `json:"estimated_fpr"`
}

// statsToV1 projects a Stats snapshot onto the frozen v1 shape.
func statsToV1(st service.Stats) statsV1 {
	out := statsV1{
		Mode:      st.Mode,
		Shards:    st.Shards,
		K:         st.K,
		ShardBits: st.ShardBits,
		Count:     st.Count,
		Weight:    st.Weight,
		Fill:      st.Fill,
		FPR:       st.FPR,
		PerShard:  make([]shardStatsV1, len(st.PerShard)),
	}
	for i, ss := range st.PerShard {
		out.PerShard[i] = shardStatsV1{
			Shard: ss.Shard, Count: ss.Count, Weight: ss.Weight, Fill: ss.Fill, FPR: ss.FPR,
		}
	}
	return out
}

// FilterSpec is the body of PUT /v2/filters/{name}: the per-filter
// configuration, all fields optional (zero values take the Config defaults).
// Index and routing keys are deliberately absent — secrets never cross the
// wire; hardened filters draw fresh random keys server-side.
type FilterSpec struct {
	Variant      string  `json:"variant,omitempty"`
	Mode         string  `json:"mode,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Capacity     uint64  `json:"capacity,omitempty"`
	TargetFPR    float64 `json:"target_fpr,omitempty"`
	ShardBits    uint64  `json:"shard_bits,omitempty"`
	HashCount    int     `json:"hash_count,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	CounterWidth int     `json:"counter_width,omitempty"`
	Overflow     string  `json:"overflow,omitempty"`
}

// Config resolves the wire spec into a service Config.
func (sp FilterSpec) Config() (service.Config, error) {
	variant, err := service.ParseVariant(sp.Variant)
	if err != nil {
		return service.Config{}, err
	}
	mode, err := service.ParseMode(sp.Mode)
	if err != nil {
		return service.Config{}, err
	}
	overflow, err := core.ParseOverflowPolicy(sp.Overflow)
	if err != nil {
		return service.Config{}, err
	}
	// Like the serve flags, contradictory fields are an error, not
	// something to silently ignore: a client pinning a seed on a hardened
	// filter would otherwise get random server-side keys and no hint that
	// its seed was discarded. (Counting fields on a bloom variant are
	// rejected by the Config validation itself.)
	if mode == service.ModeHardened && sp.Seed != 0 {
		return service.Config{}, fmt.Errorf("service: seed is meaningless for a hardened filter: the keyed family has no public seed")
	}
	return service.Config{
		Variant:      variant,
		Shards:       sp.Shards,
		Capacity:     sp.Capacity,
		TargetFPR:    sp.TargetFPR,
		ShardBits:    sp.ShardBits,
		HashCount:    sp.HashCount,
		Mode:         mode,
		Seed:         sp.Seed,
		CounterWidth: sp.CounterWidth,
		Overflow:     overflow,
	}, nil
}

// FilterInfo answers GET /v2/filters/{name} (and .../info): one filter's
// public parameters plus its capability set, so a client can discover
// whether remove or snapshot will be accepted before trying. Naive filters
// publish their seed (the threat model's public implementation); hardened
// filters do not.
type FilterInfo struct {
	Name         string   `json:"name"`
	Variant      string   `json:"variant"`
	Mode         string   `json:"mode"`
	Shards       int      `json:"shards"`
	K            int      `json:"k"`
	ShardBits    uint64   `json:"shard_bits"`
	Algorithm    string   `json:"algorithm"`
	Seed         *uint64  `json:"seed,omitempty"`
	CounterWidth int      `json:"counter_width,omitempty"`
	Overflow     string   `json:"overflow,omitempty"`
	Capabilities []string `json:"capabilities"`
}

// listResponse answers GET /v2/filters.
type listResponse struct {
	Filters []FilterInfo `json:"filters"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// filterInfo renders an engine description as the v2 wire shape.
func filterInfo(d engine.FilterDescription) FilterInfo {
	return FilterInfo{
		Name:         d.Name,
		Variant:      d.Variant,
		Mode:         d.Mode,
		Shards:       d.Shards,
		K:            d.K,
		ShardBits:    d.ShardBits,
		Algorithm:    d.Algorithm,
		Seed:         d.Seed,
		CounterWidth: d.CounterWidth,
		Overflow:     d.Overflow,
		Capabilities: d.Capabilities,
	}
}

// ---------------------------------------------------------------------------
// Server.

// Server exposes the command engine over HTTP/JSON.
//
// The versioned v2 surface manages named filters and routes item traffic to
// them:
//
//	PUT    /v2/filters/{name}              FilterSpec -> FilterInfo (201); with
//	                                       Content-Type: application/octet-stream the
//	                                       body is a snapshot envelope instead and the
//	                                       filter is created from it (naive snapshots
//	                                       only; mismatches answer 409)
//	GET    /v2/filters/{name}              -> FilterInfo
//	DELETE /v2/filters/{name}              -> 204 (also deletes the durable directory)
//	GET    /v2/filters                     -> {"filters": [FilterInfo...]}
//	POST   /v2/filters/{name}/add          {"item": s}       -> {"added": 1, "count": n}
//	POST   /v2/filters/{name}/test         {"item": s}       -> {"present": bool}
//	POST   /v2/filters/{name}/add-batch    {"items": [s...]} -> {"added": len, "count": n}
//	POST   /v2/filters/{name}/test-batch   {"items": [s...]} -> {"present": [bool...]}
//	POST   /v2/filters/{name}/remove       {"item": s}       -> {"removed": 1, "count": n}
//	POST   /v2/filters/{name}/remove-batch {"items": [s...]} -> {"removed": [bool...], "count": n}
//	GET    /v2/filters/{name}/stats        -> Stats
//	GET    /v2/filters/{name}/info         -> FilterInfo
//	GET    /v2/filters/{name}/snapshot     -> versioned, checksummed snapshot envelope
//	POST   /v2/filters/{name}/compact      -> {"compacted": true, "generation": g}
//	GET    /v2/filters/{name}/digest       -> cache-digest envelope (ETag = generation;
//	                                          If-None-Match short-circuits to 304)
//	POST   /v2/filters/{name}/digest?peer=p   push-import a sibling's digest envelope
//	POST   /v2/filters/{name}/route        {"item": s} -> RouteResponse
//	GET    /v2/filters/{name}/peers        -> {"peers": [PeerStatus...]}
//	POST   /v2/filters/{name}/peers/refresh   fetch every configured peer now
//	GET    /v2/filters/{name}/clients      -> ClientsReport (per-client mutation accounting)
//
// Every mutation (add, add-batch, remove, remove-batch, digest push) is
// charged to the requesting principal's per-filter budget; batches charge
// per item. With rate limiting configured (Registry.ConfigureRateLimit,
// `evilbloom serve -rate-mutations`) an exhausted budget answers 429 with a
// Retry-After header and nothing is applied. Accounting runs even without a
// budget, so the clients endpoint attributes pollution on every server; the
// stats endpoint carries the aggregate under "rate_limit".
//
// Identity: anonymously, mutations charge to the transport peer host (or a
// trusted proxy claim). With auth tokens configured (`evilbloom serve
// -auth-token name:secret`), a client may send `Authorization: Bearer
// name:secret`; its budget then follows the authenticated name across
// every connection and plane (HTTP and RESP alike) instead of the NAT. A
// presented-but-invalid credential answers 401 — never a silent
// fall-through to the anonymous bucket.
//
// remove/remove-batch need the Remover capability (variant=counting) and
// answer 405 with a capability error otherwise; a single remove of an item
// the filter believes absent answers 409. compact needs a durable registry
// (`evilbloom serve -data-dir`) and answers 409 otherwise. digest export
// needs a naive-mode filter (a hardened filter's keyed family never
// travels) and answers 409 otherwise; a pushed digest that is structurally
// corrupt answers 400, one naming a family no peer can evaluate answers
// 409. peers/refresh on a registry with no configured peer URLs answers
// 409.
//
// The unversioned-era v1 surface survives as a shim over the registry's
// "default" filter, byte-identical to the original single-filter server:
//
//	POST /v1/add         {"item": s}            -> {"added": 1, "count": n}
//	POST /v1/test        {"item": s}            -> {"present": bool}
//	POST /v1/add-batch   {"items": [s...]}      -> {"added": len, "count": n}
//	POST /v1/test-batch  {"items": [s...]}      -> {"present": [bool...]}
//	GET  /v1/stats                              -> statsV1
//	GET  /v1/info                               -> InfoResponse
type Server struct {
	eng *engine.Engine
	mux *http.ServeMux
}

// NewEngineServer wraps a command engine in the full v1+v2 HTTP API — the
// constructor a process sharing one engine across planes uses.
func NewEngineServer(eng *engine.Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/add", s.v1(opAdd))
	s.mux.HandleFunc("/v1/test", s.v1(opTest))
	s.mux.HandleFunc("/v1/add-batch", s.v1(opAddBatch))
	s.mux.HandleFunc("/v1/test-batch", s.v1(opTestBatch))
	s.mux.HandleFunc("/v1/stats", s.handleStatsV1)
	s.mux.HandleFunc("/v1/info", s.handleInfoV1)
	s.mux.HandleFunc("/v2/filters", s.handleFilters)
	s.mux.HandleFunc("/v2/filters/{name}", s.handleFilter)
	s.mux.HandleFunc("/v2/filters/{name}/{op}", s.handleFilterOp)
	s.mux.HandleFunc("/v2/filters/{name}/peers/refresh", s.handlePeersRefresh)
	s.mux.HandleFunc("/v2/peer-tokens/{name}", s.handlePeerToken)
	return s
}

// NewRegistryServer wraps a filter registry in the HTTP API over a fresh,
// unauthenticated engine — the compatibility constructor for embedders
// that never touch the RESP plane.
func NewRegistryServer(reg *service.Registry) *Server {
	return NewEngineServer(engine.New(reg))
}

// NewServer wraps a single store in the HTTP API, registered as the
// registry's default filter — the original single-filter constructor, kept
// so tests need no registry ceremony.
func NewServer(store *service.Sharded) *Server {
	reg := service.NewRegistry()
	if _, err := reg.Adopt(service.DefaultFilterName, store); err != nil {
		panic(err) // fresh registry, constant valid name: unreachable
	}
	return NewRegistryServer(reg)
}

// Engine returns the command engine this server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Registry returns the underlying filter registry.
func (s *Server) Registry() *service.Registry { return s.eng.Registry() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// principal resolves the request's identity, answering 401 itself when a
// presented credential is invalid.
func (s *Server) principal(w http.ResponseWriter, r *http.Request) (engine.Principal, bool) {
	p, err := s.eng.HTTPPrincipal(r)
	if err != nil {
		writeEngineError(w, err)
		return engine.Principal{}, false
	}
	return p, true
}

// defaultFilter resolves the v1 shim's target, answering the error itself.
func (s *Server) defaultFilter(w http.ResponseWriter) (engine.FilterRef, bool) {
	ref, err := s.eng.Lookup(service.DefaultFilterName)
	if err != nil {
		writeError(w, http.StatusNotFound, "no default filter registered; use /v2/filters")
		return engine.FilterRef{}, false
	}
	return ref, true
}

// v1 serves an item route of the /v1 shim. The resolved ref rides along so
// the shim's mutations charge the same per-client budgets as the default
// filter's /v2 endpoints — legacy clients get no side door around rate
// limiting.
func (s *Server) v1(op itemOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ref, ok := s.defaultFilter(w)
		if !ok {
			return
		}
		s.handleItemOp(w, r, ref, op)
	}
}

func (s *Server) handleStatsV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ref, ok := s.defaultFilter(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statsToV1(s.eng.Stats(ref).Stats))
}

func (s *Server) handleInfoV1(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ref, ok := s.defaultFilter(w)
	if !ok {
		return
	}
	d := s.eng.Describe(ref)
	writeJSON(w, http.StatusOK, InfoResponse{
		Mode:      d.Mode,
		Shards:    d.Shards,
		K:         d.K,
		ShardBits: d.ShardBits,
		Algorithm: d.Algorithm,
		Seed:      d.Seed,
	})
}

// ---------------------------------------------------------------------------
// v2: filter lifecycle.

func (s *Server) handleFilters(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only; create filters with PUT /v2/filters/{name}")
		return
	}
	descs := s.eng.List()
	resp := listResponse{Filters: make([]FilterInfo, len(descs))}
	for i, d := range descs {
		resp.Filters[i] = filterInfo(d)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFilter(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodPut:
		s.handleCreate(w, r, name)
	case http.MethodGet:
		ref, err := s.eng.Lookup(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, filterInfo(s.eng.Describe(ref)))
	case http.MethodDelete:
		if err := s.eng.DeleteFilter(name); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, "PUT, GET or DELETE only")
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, name string) {
	// A binary body (Content-Type: application/octet-stream) is a snapshot
	// envelope — create-from-snapshot; anything else is a JSON FilterSpec.
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		d, err := s.eng.CreateFromSnapshot(name, http.MaxBytesReader(w, r.Body, int64(service.MaxSnapshotBytes)))
		if err != nil {
			writeEngineError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, filterInfo(d))
		return
	}
	var spec FilterSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad filter spec: %v", err))
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, err := s.eng.CreateFilter(name, cfg)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, filterInfo(d))
}

// ---------------------------------------------------------------------------
// v2: item operations on a named filter.

func (s *Server) handleFilterOp(w http.ResponseWriter, r *http.Request) {
	ref, err := s.eng.Lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	switch op := r.PathValue("op"); op {
	case "add":
		s.handleItemOp(w, r, ref, opAdd)
	case "test":
		s.handleItemOp(w, r, ref, opTest)
	case "add-batch":
		s.handleItemOp(w, r, ref, opAddBatch)
	case "test-batch":
		s.handleItemOp(w, r, ref, opTestBatch)
	case "remove":
		s.handleItemOp(w, r, ref, opRemove)
	case "remove-batch":
		s.handleItemOp(w, r, ref, opRemoveBatch)
	case "stats":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		// The filter's own statistics plus the rate-limit aggregate, so one
		// scrape shows both the damage and who was allowed to do it.
		res := s.eng.Stats(ref)
		writeJSON(w, http.StatusOK, struct {
			service.Stats
			RateLimit service.RateLimitStats `json:"rate_limit"`
		}{res.Stats, res.RateLimit})
	case "clients":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, s.eng.Clients(ref))
	case "info":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, filterInfo(s.eng.Describe(ref)))
	case "snapshot":
		s.handleSnapshot(w, r, ref)
	case "compact":
		s.handleCompact(w, r, ref)
	case "digest":
		s.handleDigest(w, r, ref)
	case "route":
		s.handleRoute(w, r, ref)
	case "peers":
		s.handlePeers(w, r, ref)
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown filter operation %q", op))
	}
}

// itemOp names one of the six item routes; the batch forms sort last.
type itemOp uint8

const (
	opAdd itemOp = iota
	opTest
	opRemove
	opAddBatch
	opTestBatch
	opRemoveBatch
)

func (op itemOp) batch() bool   { return op >= opAddBatch }
func (op itemOp) mutates() bool { return op != opTest && op != opTestBatch }

// handleItemOp serves an item route: decode into a pooled scratch (see
// itembody.go), run the engine command on the item views, append the frozen
// answer. The scratch goes back to the pool on return, so nothing here may
// keep an item past the engine call.
func (s *Server) handleItemOp(w http.ResponseWriter, r *http.Request, ref engine.FilterRef, op itemOp) {
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	if !sc.decodeItems(w, r, op.batch()) {
		return
	}
	var p engine.Principal
	if op.mutates() {
		var ok bool
		if p, ok = s.principal(w, r); !ok {
			return
		}
	}
	out := sc.out[:0]
	var err error
	switch op {
	case opAdd:
		var res engine.AddResult
		res, err = s.eng.Add(p, ref, sc.items[0])
		out = appendCounted(out, "added", res.Added, res.Count)
	case opAddBatch:
		var res engine.AddResult
		res, err = s.eng.AddBatch(p, ref, sc.items)
		out = appendCounted(out, "added", res.Added, res.Count)
	case opTest:
		var present bool
		present, err = s.eng.Test(ref, sc.items[0])
		out = append(appendBool(append(out, `{"present":`...), present), "}\n"...)
	case opTestBatch:
		var present []bool
		if present, err = s.eng.TestBatch(ref, sc.dst[:0], sc.items); err == nil {
			sc.dst = present
		}
		out = append(appendBools(append(out, `{"present":`...), present), "}\n"...)
	case opRemove:
		var res engine.RemoveResult
		res, err = s.eng.Remove(p, ref, sc.items[0])
		out = appendCounted(out, "removed", res.Removed, res.Count)
	case opRemoveBatch:
		var res engine.RemoveBatchResult
		res, err = s.eng.RemoveBatch(p, ref, sc.items)
		out = appendBools(append(out, `{"removed":`...), res.Removed)
		out = append(strconv.AppendUint(append(out, `,"count":`...), res.Count, 10), "}\n"...)
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	sc.out = out
	sc.reply(w)
}

// frameVersion reads the version field that snapshot envelopes, digest
// envelopes and digest delta frames all keep after their 8-byte magic.
func frameVersion(frame []byte) uint16 {
	if len(frame) < 10 {
		return 0
	}
	return binary.LittleEndian.Uint16(frame[8:])
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	blob, err := s.eng.Snapshot(ref)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Evilbloom-Snapshot-Version", fmt.Sprint(frameVersion(blob)))
	w.WriteHeader(http.StatusOK)
	w.Write(blob) //nolint:errcheck // client gone; nothing to do
}

// handleCompact forces a durable filter's snapshot+log rotation; a
// memory-only filter answers 409 so operators notice the missing -data-dir
// instead of trusting a no-op.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	gen, err := s.eng.Compact(ref)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compactResponse{Compacted: true, Generation: gen})
}

// ---------------------------------------------------------------------------
// v2: cache-digest exchange (§7 between nodes).

// handleDigest serves a filter's cache digest (GET, with a generation ETag
// so unchanged digests cost a peer one conditional request and no transfer)
// and accepts push-imported sibling digests (POST with ?peer=<label>).
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	switch r.Method {
	case http.MethodGet:
		s.handleDigestGet(w, r, ref)
	case http.MethodPost:
		s.handleDigestPush(w, r, ref)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET exports the digest; POST ?peer=<label> imports one")
	}
}

func (s *Server) handleDigestGet(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	// The conditional check reads only the O(shards) generation counter;
	// an unchanged filter never pays for digest serialization. Matching is
	// RFC 9110 If-None-Match semantics, not string equality: intermediaries
	// legitimately send `*`, weak `W/"..."` forms and comma-joined lists of
	// every tag they hold, and all of them must be able to earn the 304.
	// Only If-None-Match can earn it: the delta-path Digest-Have header
	// names what the peer holds, not what it would accept unchanged, and
	// must never short-circuit a transfer of content the peer lacks.
	if match := r.Header.Get("If-None-Match"); match != "" {
		if current := s.eng.DigestETag(ref); etagMatch(match, current) {
			w.Header().Set("ETag", current)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	res, err := s.eng.DigestExchange(ref,
		r.Header.Get(service.HeaderDigestHave),
		r.Header.Get(service.HeaderDigestDelta) == "1",
		r.Header.Get(service.HeaderPeerToken))
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", res.ETag)
	w.Header().Set("X-Evilbloom-Digest-Version", fmt.Sprint(frameVersion(res.Blob)))
	frame := "full"
	if res.Delta {
		frame = "delta"
	}
	w.Header().Set(service.HeaderDigestFrame, frame)
	if res.Sealer != "" {
		w.Header().Set(service.HeaderPeer, res.Sealer)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(res.Blob) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleDigestPush(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	label := r.URL.Query().Get("peer")
	if label == "" {
		writeError(w, http.StatusBadRequest, "peer query parameter required: which sibling does this digest describe?")
		return
	}
	p, ok := s.principal(w, r)
	if !ok {
		return
	}
	status, err := s.eng.DigestPush(p, ref, label,
		http.MaxBytesReader(w, r.Body, int64(service.MaxSnapshotBytes)),
		r.Header.Get(service.HeaderPeerToken))
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, digestPushResponse{Imported: true, Peer: status})
}

// handlePeerToken revokes one mesh credential (DELETE /v2/peer-tokens/{name})
// — ejecting an evil sibling live: its pushes stop authenticating, its
// sealed digests stop verifying, and everything it already landed is
// scrubbed. Like the rest of this demonstration server's management surface
// the endpoint is open; a production deployment would gate it behind an
// operator credential.
func (s *Server) handlePeerToken(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "DELETE revokes a peer credential")
		return
	}
	name := r.PathValue("name")
	evicted, found := s.eng.RevokePeerToken(name)
	if !found {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no peer credential named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, peerTokenRevokeResponse{Revoked: name, DigestsEvicted: evicted})
}

// handleRoute answers the §7 routing question for one item: local cache,
// sibling whose digest claims it, or origin.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	var req itemRequest
	if !decode(w, r, &req) {
		return
	}
	res, err := s.eng.Route(ref, []byte(req.Item))
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RouteResponse{
		Local:    res.Local,
		Verdict:  res.Verdict,
		Peer:     res.Peer,
		Peers:    res.Claims,
		Claiming: res.ClaimCount,
		Quorum:   res.Quorum,
	})
}

// handlePeers reports one filter's per-peer digest accounting.
func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request, ref engine.FilterRef) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only; force a fetch with POST .../peers/refresh")
		return
	}
	status, err := s.eng.PeerStatus(ref)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if status == nil {
		status = []service.PeerStatus{}
	}
	writeJSON(w, http.StatusOK, peersResponse{Peers: status})
}

// handlePeersRefresh synchronously fetches every configured peer's digest
// for one filter — the deterministic alternative to waiting out the
// jittered refresh interval (tests, smoke scripts, operators mid-incident).
func (s *Server) handlePeersRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ref, err := s.eng.Lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	status, err := s.eng.RefreshPeers(ref)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, peersResponse{Peers: status})
}

// ---------------------------------------------------------------------------
// Shared plumbing.

// decode parses a POST JSON body into dst, answering the error itself when
// the request is malformed.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, service.MaxBodyBytes), dst)
}

// decodeFrom is decode's second half: one JSON value off rd into dst,
// unknown fields refused. The item routes reach it with an already-buffered
// body when their scanner declines it.
func decodeFrom(w http.ResponseWriter, rd io.Reader, dst any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeBodyTooLarge(w)
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// writeEngineError renders an engine failure: kinds map to status codes,
// busy errors additionally carry Retry-After, and validation errors keep
// this plane's frozen phrasings.
func writeEngineError(w http.ResponseWriter, err error) {
	// The switch is exhaustive over engine.Kind — evillint's errmap
	// analyzer fails the build if a kind is missing an arm, so a new
	// engine kind cannot silently fall through to 500. That fallthrough
	// was real: before the analyzer, a KindBusy-classified error that was
	// not a *engine.BusyError answered 500 ("server broken") instead of
	// 429 ("back off").
	status := http.StatusInternalServerError
	switch engine.Classify(err) {
	case engine.KindInvalid:
		status = http.StatusBadRequest
	case engine.KindNotFound:
		status = http.StatusNotFound
	case engine.KindCapability:
		status = http.StatusMethodNotAllowed
	case engine.KindConflict:
		status = http.StatusConflict
	case engine.KindBusy:
		status = http.StatusTooManyRequests
		var busy *engine.BusyError
		if errors.As(err, &busy) {
			w.Header().Set("Retry-After", strconv.FormatInt(busy.RetrySecs, 10))
		}
	case engine.KindUnauthorized:
		status = http.StatusUnauthorized
	case engine.KindTooLarge:
		status = http.StatusRequestEntityTooLarge
	case engine.KindInternal:
		status = http.StatusInternalServerError
	}
	writeError(w, status, httpErrorMessage(err))
}

// httpErrorMessage keeps this plane's historical validation phrasings: the
// engine reports a typed item/batch violation, and the HTTP surface has
// always worded those messages this way — changing them would break
// clients that match on body text.
func httpErrorMessage(err error) string {
	var item *engine.ItemError
	if errors.As(err, &item) {
		switch {
		case item.Index >= 0:
			return fmt.Sprintf("item %d empty or exceeds %d bytes", item.Index, service.MaxItemLen)
		case item.Len == 0:
			return "empty item"
		default:
			return fmt.Sprintf("item exceeds %d bytes", service.MaxItemLen)
		}
	}
	var batch *engine.BatchTooLargeError
	if errors.As(err, &batch) {
		return fmt.Sprintf("batch exceeds %d items", service.MaxBatch)
	}
	return err.Error()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
