package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// client is one keep-alive connection to the server on one plane.
type client struct {
	conn   net.Conn
	br     *bufio.Reader
	http   bool
	filter string
	out    []byte // request under construction
	body   []byte // HTTP body scratch, request then response
}

func dial(addr string, http bool, filter string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), http: http, filter: filter}, nil
}

func (c *client) close() { c.conn.Close() }

// send writes one request: BF.MADD or BF.MEXISTS on the RESP plane, POST
// test-batch on the HTTP plane (which carries reads only).
func (c *client) send(add bool, keys [][]byte) error {
	switch {
	case !c.http && add:
		c.out = appendRESPCommand(c.out[:0], "BF.MADD", c.filter, keys)
	case !c.http:
		c.out = appendRESPCommand(c.out[:0], "BF.MEXISTS", c.filter, keys)
	case add:
		return errors.New("the HTTP client carries reads only")
	default:
		c.body = appendJSONItems(c.body[:0], keys)
		c.out = appendHTTPHead(c.out[:0], "POST", "/v2/filters/"+c.filter+"/test-batch", "application/json", len(c.body))
		c.out = append(c.out, c.body...)
	}
	_, err := c.conn.Write(c.out)
	return err
}

// recv reads the reply to one request of n keys and appends its verdicts to
// out. A *replyError leaves the connection usable.
func (c *client) recv(n int, out []bool) ([]bool, error) {
	if !c.http {
		return readRESPVerdicts(c.br, n, out)
	}
	status, body, err := readHTTPResponse(c.br, c.body)
	c.body = body
	if err != nil {
		return out, err
	}
	if status != 200 {
		return out, &replyError{fmt.Sprintf("HTTP %d: %s", status, truncate(body))}
	}
	return parsePresent(body, n, out)
}

// tally is what one connection saw while driving one source.
type tally struct {
	requests  uint64 // sent and answered, or given up on
	failed    uint64 // of those: error reply, short reply or false negative
	items     uint64 // keys acknowledged
	positives uint64 // reads of never-inserted keys answered "present"
	absent    uint64 // reads of never-inserted keys
	firstErr  error
	// Filled when recording: per request, completion time since the phase
	// start and round trip (send → last reply byte), both in nanoseconds.
	doneAt []int64
	lat    []int64
	// Filled when keeping verdicts: one per read key, in stream order.
	verdicts []bool
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

type pending struct {
	sentAt int64
	add    bool
	n      int
	want   []bool
}

// drive runs one connection's closed loop: keep up to depth requests
// outstanding until the source is exhausted or, with a deadline set, that
// long has passed since start; then wait for every reply. Every reply is
// checked. record and keep select what is stored per request.
func drive(c *client, src source, start time.Time, deadline time.Duration, record, keep bool) tally {
	var t tally
	if record {
		// Room for 32 k requests a second; more only costs a reallocation.
		t.doneAt = make([]int64, 0, int(deadline.Seconds()+1)<<15)
		t.lat = make([]int64, 0, cap(t.doneAt))
	}
	ring := make([]pending, depth)
	var kb keyBatch
	var verdicts []bool
	sent, done := 0, 0
	exhausted := false
	for {
		for !exhausted && sent-done < depth {
			p := &ring[sent%depth]
			p.sentAt = int64(time.Since(start))
			if deadline > 0 && p.sentAt >= int64(deadline) {
				exhausted = true
				break
			}
			var ok bool
			p.add, p.want, ok = src.next(&kb, p.want[:0])
			if !ok {
				exhausted = true
				break
			}
			keys := kb.slices()
			p.n = len(keys)
			if err := c.send(p.add, keys); err != nil {
				t.requests++
				t.fail(fmt.Errorf("send: %w", err))
				return t.abandon(src, &kb, sent-done, deadline > 0)
			}
			sent++
		}
		if done == sent {
			return t
		}
		p := &ring[done%depth]
		var err error
		verdicts, err = c.recv(p.n, verdicts[:0])
		now := int64(time.Since(start))
		done++
		t.requests++
		var re *replyError
		switch {
		case errors.As(err, &re):
			t.fail(err)
		case err != nil:
			t.fail(fmt.Errorf("reply: %w", err))
			return t.abandon(src, &kb, sent-done, deadline > 0)
		default:
			t.items += uint64(p.n)
			if !p.add {
				t.check(p.want, verdicts, keep)
			}
		}
		if record {
			t.doneAt = append(t.doneAt, now)
			t.lat = append(t.lat, now-p.sentAt)
		}
	}
}

// check compares a read's verdicts with what the stream knows.
func (t *tally) check(want, verdicts []bool, keep bool) {
	falseNegative := false
	for i, present := range verdicts {
		switch {
		case want[i] && !present:
			falseNegative = true
		case !want[i]:
			t.absent++
			if present {
				t.positives++
			}
		}
	}
	if falseNegative {
		t.fail(errors.New("false negative: a key known present was reported absent"))
	}
	if keep {
		t.verdicts = append(t.verdicts, verdicts...)
	}
}

// abandon counts what a lost connection leaves undone as failed: the
// requests outstanding and, unless only a deadline bounds it, the rest of
// the list.
func (t *tally) abandon(src source, kb *keyBatch, outstanding int, timeBound bool) tally {
	t.requests += uint64(outstanding)
	t.failed += uint64(outstanding)
	if timeBound {
		return *t
	}
	var want []bool
	for {
		_, w, ok := src.next(kb, want[:0])
		if !ok {
			return *t
		}
		want = w
		t.requests++
		t.failed++
	}
}

// phase is the outcome of driving every connection through one source each.
type phase struct {
	tallies []tally
	start   time.Time
	// ends holds, per connection, when its last reply arrived, in
	// nanoseconds since start.
	ends []int64
}

// runPhase drives one source per client concurrently, from a common start.
func runPhase(clients []*client, sources []source, deadline time.Duration, record, keep bool) phase {
	ph := phase{tallies: make([]tally, len(clients)), ends: make([]int64, len(clients)), start: time.Now()}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ph.tallies[i] = drive(clients[i], sources[i], ph.start, deadline, record, keep)
			ph.ends[i] = int64(time.Since(ph.start))
		}(i)
	}
	wg.Wait()
	return ph
}

// total sums the counters of a phase; firstErr is the first error of the
// lowest-numbered connection that saw one.
func (ph phase) total() tally {
	var sum tally
	for _, t := range ph.tallies {
		sum.requests += t.requests
		sum.failed += t.failed
		sum.items += t.items
		sum.positives += t.positives
		sum.absent += t.absent
		if sum.firstErr == nil {
			sum.firstErr = t.firstErr
		}
	}
	return sum
}

// httpDo makes one request on a connection of its own and returns the
// status and body of the answer.
func httpDo(addr, method, path, contentType string, body []byte) (int, []byte, error) {
	c, err := dial(addr, true, "")
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	if _, err := c.conn.Write(appendHTTPHead(nil, method, path, contentType, len(body))); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(body); err != nil {
		return 0, nil, err
	}
	return readHTTPResponse(c.br, nil)
}
