package engine

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
)

// Principal is the identity a command runs as: the key its mutations are
// charged to and attributed under. Two resolutions exist:
//
//   - Anonymous: the transport peer host (or, behind -trust-proxy, a
//     header-claimed identity). NAT'd clients share one bucket — the
//     coarse default the paper's §8 mitigation has to live with.
//   - Authenticated: a token presented over HTTP (Authorization: Bearer
//     name:secret) or RESP (AUTH / HELLO ... AUTH). The bucket key becomes
//     "auth:<name>", shared across every plane and connection the client
//     uses and distinct from its NAT host's bucket — budgets and pollution
//     attribution follow the client, not the network path.
type Principal struct {
	// ID is the rate-limit bucket key and accounting identity.
	ID string
	// Name is the authenticated token name; empty for anonymous principals.
	Name string
}

// Authenticated reports whether the principal presented valid credentials.
func (p Principal) Authenticated() bool { return p.Name != "" }

// authBucketPrefix namespaces authenticated bucket keys away from host
// identities, so an authenticated client's budget cannot collide with —
// or be stolen by — a transport address or header claim.
const authBucketPrefix = "auth:"

// peerBucketPrefix namespaces mesh peer principals the same way: a
// sibling's mesh credential spends its own bucket, never a client's.
const peerBucketPrefix = "peer:"

// ClientIdentityHeader is the header a client may use to self-identify for
// rate limiting and accounting. It is honored only when the server runs
// with -trust-proxy: identity headers are claims, and only a trusted proxy
// tier makes them worth believing.
const ClientIdentityHeader = "X-Evilbloom-Client"

// MaxClientIdentity bounds claimed client identities (header-supplied or
// token names): they become map keys and JSON strings echoed back on the
// clients endpoint.
const MaxClientIdentity = 128

// ValidClientIdentity bounds claimed identities: non-empty, at most
// MaxClientIdentity bytes, printable ASCII with no whitespace.
func ValidClientIdentity(id string) bool {
	if id == "" || len(id) > MaxClientIdentity {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return false
		}
	}
	return true
}

// AnonymousFromRemoteAddr resolves the unauthenticated principal for a raw
// transport connection: the host part of a listener-reported remote
// address, one bucket per NAT. Every wire plane charges it when no trusted
// proxy claim applies, so a client exhausting its budget over HTTP is
// equally exhausted over RESP — one bucket per peer host, not per plane.
func AnonymousFromRemoteAddr(remoteAddr string) Principal {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil || host == "" {
		return Principal{ID: remoteAddr}
	}
	return Principal{ID: host}
}

// errBadCredentials deliberately does not say whether the name or the
// secret was wrong.
var errBadCredentials = &Error{kind: KindUnauthorized,
	err: errors.New("invalid credentials: unknown principal or wrong secret")}

// ConfigureAuth installs the token table from "name:secret" entries (the
// -auth-token flag, repeatable). One-shot, before traffic, like the
// rate-limit and mesh configuration. Names follow the
// client-identity rule (printable ASCII, bounded) and cannot contain ':';
// secrets must be non-empty.
func (e *Engine) ConfigureAuth(entries []string) error {
	e.authMu.Lock()
	defer e.authMu.Unlock()
	if e.authConfigured {
		return fmt.Errorf("engine: auth tokens already configured")
	}
	tokens := make(map[string]string, len(entries))
	for _, entry := range entries {
		name, secret, ok := strings.Cut(entry, ":")
		if !ok || secret == "" {
			return fmt.Errorf("engine: auth token %q: want name:secret with a non-empty secret", entry)
		}
		if !validTokenName(name) {
			return fmt.Errorf("engine: auth token name %q: want printable ASCII without whitespace or ':', at most %d bytes",
				name, MaxClientIdentity)
		}
		if _, dup := tokens[name]; dup {
			return fmt.Errorf("engine: duplicate auth token name %q", name)
		}
		tokens[name] = secret
	}
	e.authConfigured = true
	e.tokens = tokens
	return nil
}

// AuthEnabled reports whether any auth tokens are installed.
func (e *Engine) AuthEnabled() bool {
	e.authMu.RLock()
	defer e.authMu.RUnlock()
	return len(e.tokens) > 0
}

// Login authenticates name/secret against the token table, returning the
// authenticated principal whose bucket is shared across planes. The
// comparison is constant-time and the failure message does not reveal
// whether the name exists.
func (e *Engine) Login(name, secret string) (Principal, error) {
	e.authMu.RLock()
	want, ok := e.tokens[name]
	e.authMu.RUnlock()
	if !ok {
		// Burn comparable time for unknown names so timing does not
		// enumerate the token table.
		subtle.ConstantTimeCompare([]byte(secret), []byte(secret))
		return Principal{}, errBadCredentials
	}
	if subtle.ConstantTimeCompare([]byte(secret), []byte(want)) != 1 {
		return Principal{}, errBadCredentials
	}
	return Principal{ID: authBucketPrefix + name, Name: name}, nil
}

// LoginToken authenticates a combined "name:secret" credential — the shape
// a single-argument RESP AUTH or an HTTP bearer token carries.
func (e *Engine) LoginToken(token string) (Principal, error) {
	name, secret, ok := strings.Cut(token, ":")
	if !ok {
		return Principal{}, wrap(KindUnauthorized,
			errors.New("malformed credentials; want name:secret"))
	}
	return e.Login(name, secret)
}

// HTTPPrincipal resolves a request's principal. Presented credentials are
// authoritative: a bad bearer token is an authentication error, never a
// silent fall-through to the anonymous identity (that would let a client
// shed a throttled auth bucket by garbling its token). Without an
// Authorization header the anonymous resolution applies — transport peer
// host, or a trusted proxy claim.
func (e *Engine) HTTPPrincipal(r *http.Request) (Principal, error) {
	if auth := r.Header.Get("Authorization"); auth != "" {
		const scheme = "Bearer "
		if len(auth) <= len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
			return Principal{}, wrap(KindUnauthorized,
				errors.New("unsupported Authorization scheme; use Bearer name:secret"))
		}
		return e.LoginToken(strings.TrimSpace(auth[len(scheme):]))
	}
	return Principal{ID: e.httpIdentity(r)}, nil
}

// httpIdentity resolves the anonymous identity a request's mutations are
// charged to. By default that is the transport peer address — unforgeable
// at this layer. With the trust-proxy setting, a well-formed
// X-Evilbloom-Client claim wins, then the *rightmost* entry of
// X-Forwarded-For: an appending proxy tier vouches only for the hop it
// appended (the last one); the leftmost entries arrive verbatim from the
// client, and keying budgets off them would let an attacker mint a fresh
// identity — and a fresh burst — per request. Malformed values fall
// through rather than erroring, so a garbage header cannot dodge
// accounting altogether.
func (e *Engine) httpIdentity(r *http.Request) string {
	if e.lim.trustsProxy() {
		if id := r.Header.Get(ClientIdentityHeader); validClaim(id) {
			return id
		}
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			last := xff
			if i := strings.LastIndexByte(xff, ','); i >= 0 {
				last = xff[i+1:]
			}
			if last = strings.TrimSpace(last); validClaim(last) {
				return last
			}
		}
	}
	return AnonymousFromRemoteAddr(r.RemoteAddr).ID
}

// validClaim bounds header-claimed identities and keeps them out of the
// authenticated namespaces: a proxy-trusted client must not be able to
// claim "auth:alice" (or "peer:nodeB") and spend that bucket without the
// secret.
func validClaim(id string) bool {
	return ValidClientIdentity(id) &&
		!strings.HasPrefix(id, authBucketPrefix) &&
		!strings.HasPrefix(id, peerBucketPrefix)
}

// validTokenName is the rule for auth and peer token names: a client
// identity that cannot contain the ':' separating name from secret.
func validTokenName(name string) bool {
	return ValidClientIdentity(name) && !strings.Contains(name, ":")
}
