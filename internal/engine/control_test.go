package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/mesh"
	"evilbloom/internal/service"
)

// tiny is the smallest filter the registry accepts: 64 bits on one shard.
var tiny = service.Config{Shards: 1, ShardBits: 64, HashCount: 2}

// The control commands driven directly: creation describes what it built,
// List and Describe agree with it, Stats counts what was added, and
// DeleteFilter refunds the storage budget the creation charged.
func TestFilterLifecycleCommands(t *testing.T) {
	e := testEngine(t, false)
	naive, err := e.CreateFilter("naive", service.Config{Shards: 2, ShardBits: 1024, HashCount: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Name != "naive" || naive.Mode != "naive" || naive.Shards != 2 || naive.K != 3 ||
		naive.ShardBits != 1024 || naive.Seed == nil || *naive.Seed != 9 || naive.Durable {
		t.Fatalf("naive description %+v", naive)
	}
	hard, err := e.CreateFilter("hard", service.Config{Shards: 2, ShardBits: 1024, Mode: service.ModeHardened,
		Variant: service.VariantCounting, Key: []byte("0123456789abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	if hard.Seed != nil || hard.Variant != "counting" || !strings.Contains(fmt.Sprint(hard.Capabilities), "remove") ||
		strings.Contains(fmt.Sprint(hard.Capabilities), "digest") {
		t.Fatalf("hardened counting description %+v: publishes a seed, or has the wrong capabilities", hard)
	}

	list := e.List()
	if len(list) != 2 || list[0].Name != "hard" || list[1].Name != "naive" {
		t.Fatalf("List: %+v, want hard then naive", list)
	}
	ref, err := e.Lookup("naive")
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Describe(ref); !reflect.DeepEqual(d, naive) {
		t.Fatalf("Describe %+v, created as %+v", d, naive)
	}
	if _, err := e.AddBatch(Principal{ID: "c"}, ref, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats(ref)
	if st.Stats.Count != 2 || st.RateLimit.AllowedMutations != 2 {
		t.Fatalf("Stats after two adds: count %d, allowed %d", st.Stats.Count, st.RateLimit.AllowedMutations)
	}

	before, _ := e.reg.StorageInUse()
	if err := e.DeleteFilter("naive"); err != nil {
		t.Fatal(err)
	}
	if after, _ := e.reg.StorageInUse(); before-after != 2*1024 {
		t.Fatalf("delete refunded %d bits, want %d", before-after, 2*1024)
	}
	if _, err := e.Lookup("naive"); Classify(err) != KindNotFound {
		t.Fatalf("lookup after delete: %v", err)
	}
	if err := e.DeleteFilter("naive"); Classify(err) != KindNotFound {
		t.Fatalf("second delete: %v", err)
	}
}

// A refused creation charges nothing: the registry's filter budget, a
// taken name, an invalid name, an oversized geometry and a corrupt or
// hardened snapshot all leave the storage budget and the reservations
// where they were, and a deletion makes room again.
func TestCreateRefusalsLeaveTheBudget(t *testing.T) {
	e := testEngine(t, false)
	for i := 0; i < service.MaxFilters; i++ {
		if _, err := e.CreateFilter(fmt.Sprintf("f%02d", i), tiny); err != nil {
			t.Fatal(err)
		}
	}
	bits, reservations := e.reg.StorageInUse()
	if bits != service.MaxFilters*64 || reservations != 0 {
		t.Fatalf("%d filters charge %d bits with %d reservations", service.MaxFilters, bits, reservations)
	}
	hardened, err := service.NewSharded(service.Config{Shards: 1, ShardBits: 64, Mode: service.ModeHardened})
	if err != nil {
		t.Fatal(err)
	}
	hardSnap, err := hardened.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refusals := []struct {
		name string
		kind Kind
		do   func() error
	}{
		{"registry full", KindConflict, func() error { _, err := e.CreateFilter("one-more", tiny); return err }},
		{"name taken", KindConflict, func() error { _, err := e.CreateFilter("f00", tiny); return err }},
		{"invalid name", KindInvalid, func() error { _, err := e.CreateFilter("../etc", tiny); return err }},
		{"over MaxFilterBits", KindInvalid, func() error {
			_, err := e.CreateFilter("huge", service.Config{Shards: 2, ShardBits: service.MaxFilterBits})
			return err
		}},
		{"corrupt snapshot", KindInvalid, func() error {
			_, err := e.CreateFromSnapshot("junk", strings.NewReader("EVBSNAP1 not a snapshot"))
			return err
		}},
		{"hardened snapshot", KindConflict, func() error {
			_, err := e.CreateFromSnapshot("hard", bytes.NewReader(hardSnap))
			return err
		}},
	}
	for _, r := range refusals {
		if err := r.do(); Classify(err) != r.kind {
			t.Errorf("%s: %v (kind %d), want kind %d", r.name, err, Classify(err), r.kind)
		}
		if b, n := e.reg.StorageInUse(); b != bits || n != 0 {
			t.Errorf("%s: budget %d bits, %d reservations after the refusal; want %d, 0", r.name, b, n, bits)
		}
	}
	if err := e.DeleteFilter("f00"); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Lookup("f01")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(ref)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := e.CreateFromSnapshot("clone", bytes.NewReader(snap)); err != nil || d.ShardBits != 64 {
		t.Fatalf("create from snapshot after a delete: %+v, %v", d, err)
	}
}

// DigestPush: a label off the filter-name rule is invalid and free; past
// MaxPushedPeers labels a push is a conflict and its charge is refunded; a
// sealed mesh refuses a push with no credential or a wrong one (401), and
// a body its credential did not seal, none of them costing anyone; an
// accepted sealed push is charged to the peer's own bucket.
func TestDigestPushRules(t *testing.T) {
	e := testEngine(t, false)
	if _, err := e.CreateFilter("f", service.Config{Shards: 1, ShardBits: 256, HashCount: 2}); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch(Principal{ID: "seed"}, ref, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	dig, err := e.DigestExchange(ref, "", false, "")
	if err != nil {
		t.Fatal(err)
	}
	pusher := Principal{ID: "10.0.0.9"}
	allowed := func(id string) uint64 {
		for _, c := range e.Clients(ref).Clients {
			if c.Client == id {
				return c.Allowed
			}
		}
		return 0
	}

	if _, err := e.DigestPush(pusher, ref, "bad/label", bytes.NewReader(dig.Blob), ""); Classify(err) != KindInvalid {
		t.Fatalf("bad label: %v", err)
	}
	if _, err := e.DigestPush(pusher, ref, "sib", bytes.NewReader(dig.Blob), "peer:psecret"); Classify(err) != KindUnauthorized {
		t.Fatalf("credential on a node with no roster: %v", err)
	}
	for i := 0; i < mesh.MaxPushedPeers; i++ {
		if _, err := e.DigestPush(pusher, ref, fmt.Sprintf("sib%02d", i), bytes.NewReader(dig.Blob), ""); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if _, err := e.DigestPush(pusher, ref, "one-more", bytes.NewReader(dig.Blob), ""); Classify(err) != KindConflict {
		t.Fatalf("push past MaxPushedPeers: %v", err)
	}
	if got := allowed(pusher.ID); got != mesh.MaxPushedPeers {
		t.Fatalf("pusher charged %d pushes, want the %d accepted ones", got, mesh.MaxPushedPeers)
	}

	sealed := testEngine(t, false)
	if err := sealed.ConfigureMesh(mesh.PeerConfig{Tokens: []string{"self:ssecret", "peer:psecret"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sealed.CreateFilter("f", service.Config{Shards: 1, ShardBits: 256, HashCount: 2}); err != nil {
		t.Fatal(err)
	}
	sref, err := sealed.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, token string }{
		{"no credential", ""}, {"wrong secret", "peer:wrong"}, {"unknown peer", "nobody:psecret"},
	} {
		if _, err := sealed.DigestPush(pusher, sref, "sib", bytes.NewReader(dig.Blob), c.token); Classify(err) != KindUnauthorized {
			t.Errorf("sealed mesh, %s: %v, want unauthorized", c.name, err)
		}
	}
	if _, err := sealed.DigestPush(pusher, sref, "sib", bytes.NewReader(dig.Blob), "peer:psecret"); err == nil {
		t.Error("sealed mesh accepted an unsealed body")
	}
	body := cachedigest.Seal(dig.Blob, []byte("psecret"))
	if _, err := sealed.DigestPush(pusher, sref, "sib", bytes.NewReader(body), "peer:psecret"); err != nil {
		t.Fatalf("sealed push with the peer's credential: %v", err)
	}
	report := sealed.Clients(sref)
	if len(report.Clients) != 1 || report.Clients[0].Client != peerBucketPrefix+"peer" || report.Clients[0].Allowed != 1 {
		t.Fatalf("sealed-mesh accounting %+v: want one accepted push on the peer's bucket", report.Clients)
	}
}

// An -auth-token credential resolves to its own principal: its mutations
// land in the "auth:<name>" bucket, apart from the anonymous bucket of the
// same transport address, on every entry point (name+secret, combined
// token).
func TestAuthTokenPrincipalBucket(t *testing.T) {
	e := testEngine(t, false)
	if err := e.ConfigureAuth([]string{"alice:s3cret", "bob:pa:ss"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateFilter("f", tiny); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := e.LoginToken("alice:s3cret")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := e.Login("bob", "pa:ss")
	if err != nil {
		t.Fatal(err)
	}
	anon := AnonymousFromRemoteAddr("10.0.0.7:4242")
	for _, c := range []struct {
		p Principal
		n int
	}{{alice, 3}, {bob, 2}, {anon, 1}} {
		items := make([][]byte, c.n)
		for i := range items {
			items[i] = []byte(fmt.Sprintf("%s-%d", c.p.ID, i))
		}
		if _, err := e.AddBatch(c.p, ref, items); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]uint64{}
	for _, c := range e.Clients(ref).Clients {
		got[c.Client] = c.Allowed
	}
	want := map[string]uint64{"auth:alice": 3, "auth:bob": 2, "10.0.0.7": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
}
