package resp

import (
	"fmt"
	"strconv"
	"time"

	"evilbloom/internal/attack"
)

// Target adapts one filter reached over a Client to attack.Target, so the
// campaigns of package attack run over the binary plane unchanged: BF.INFO
// answers Info and Stats, BF.MADD AddBatch, BF.EXISTS Test and CF.DEL
// Remove, each one round trip. A -BUSY refusal comes back as
// *attack.ThrottledError, the value an HTTP 429 produces. Items travel as
// bulk strings, so they may hold any bytes. The adapter lives here rather
// than in attack because attack sits below the service (cachedigest imports
// it) and this package above it.
type Target struct {
	cli    *Client
	filter string
}

var _ attack.Target = (*Target)(nil)

// NewTarget adapts filter on cli's server. The caller keeps cli and closes
// it; it must have no commands pending.
func NewTarget(cli *Client, filter string) *Target {
	return &Target{cli: cli, filter: filter}
}

// Info implements attack.Target from BF.INFO.
func (t *Target) Info() (*attack.RemoteInfo, error) {
	info, _, err := t.info()
	return info, err
}

// Stats implements attack.Target from BF.INFO.
func (t *Target) Stats() (*attack.RemoteStats, error) {
	_, st, err := t.info()
	return st, err
}

// AddBatch implements attack.Target with one BF.MADD.
func (t *Target) AddBatch(items [][]byte) error {
	_, err := t.call("BF.MADD", items...)
	return err
}

// Test implements attack.Target with BF.EXISTS.
func (t *Target) Test(item []byte) (bool, error) {
	reply, err := t.call("BF.EXISTS", item)
	return err == nil && reply.Int == 1, err
}

// Remove implements attack.Target with CF.DEL, which answers 0 for an item
// the filter believes absent.
func (t *Target) Remove(item []byte) (bool, error) {
	reply, err := t.call("CF.DEL", item)
	return err == nil && reply.Int == 1, err
}

// info parses BF.INFO's field/value list into the campaign's two views of
// it.
func (t *Target) info() (*attack.RemoteInfo, *attack.RemoteStats, error) {
	reply, err := t.call("BF.INFO")
	if err != nil {
		return nil, nil, err
	}
	info, st := &attack.RemoteInfo{}, &attack.RemoteStats{}
	for i := 0; i+1 < len(reply.Elems); i += 2 {
		val := &reply.Elems[i+1]
		switch reply.Elems[i].Str {
		case "mode":
			info.Mode = val.Str
		case "variant":
			info.Variant = val.Str
		case "shards":
			info.Shards = int(val.Int)
		case "k":
			info.K = int(val.Int)
		case "shard_bits":
			info.ShardBits = uint64(val.Int)
		case "seed":
			seed := uint64(val.Int)
			info.Seed = &seed
		case "count":
			st.Count = uint64(val.Int)
		case "weight":
			st.Weight = uint64(val.Int)
		case "fill":
			st.Fill, _ = strconv.ParseFloat(val.Str, 64)
		case "estimated_fpr":
			st.FPR, _ = strconv.ParseFloat(val.Str, 64)
		}
	}
	return info, st, nil
}

// call sends "cmd filter items..." and waits for its reply, turning -BUSY
// into *attack.ThrottledError and any other error reply into an error.
func (t *Target) call(cmd string, items ...[]byte) (*Reply, error) {
	t.cli.SendItems(cmd, t.filter, items)
	err := t.cli.Flush()
	var reply *Reply
	if err == nil {
		reply, err = t.cli.Receive()
	}
	switch {
	case err != nil:
	case reply.IsBusy():
		secs, _ := reply.BusyRetrySeconds()
		err = &attack.ThrottledError{RetryAfter: time.Duration(secs) * time.Second}
	default:
		err = reply.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("resp: %s %s: %w", cmd, t.filter, err)
	}
	return reply, nil
}
