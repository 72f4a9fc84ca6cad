package httpapi

import (
	"testing"

	"evilbloom/internal/service"
)

// testConfig returns a small deterministic store config.
func testConfig(mode service.Mode, shards int) service.Config {
	return service.Config{
		Shards:    shards,
		Capacity:  20000,
		TargetFPR: 1.0 / 1024,
		Mode:      mode,
		Seed:      3,
		Key:       []byte("0123456789abcdef"),
		RouteKey:  []byte("fedcba9876543210"),
	}
}

// adoptServer serves store as the registry's default filter, the way
// `evilbloom serve` serves the store its flags describe.
func adoptServer(t *testing.T, store *service.Sharded) *Server {
	t.Helper()
	reg := service.NewRegistry()
	if _, err := reg.Adopt(service.DefaultFilterName, store); err != nil {
		t.Fatal(err)
	}
	return NewRegistryServer(reg)
}
