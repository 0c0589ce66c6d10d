package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// epoch anchors clock: every timestamp of a run — generator, client,
// middleware and shard calls — is read from the same monotonic clock.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// sender is one generator connection: a client of its own whose transport
// keeps a single keep-alive connection per server.
type sender struct{ hc *http.Client }

func newSenders(n int) []*sender {
	s := make([]*sender, n)
	for i := range s {
		s[i] = &sender{hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}}
	}
	return s
}

func closeSenders(ss []*sender) {
	for _, s := range ss {
		s.hc.CloseIdleConnections()
	}
}

// exchange is one request and its outcome. Times are clock() readings:
// due when the schedule wanted it sent, taken when a sender picked it up,
// sent just before the round trip, headers when the response headers were
// in, done when the body was decoded.
type exchange struct {
	item    int
	key     string // X-API-Key (DP mode)
	trace   uint64 // request ID when traced, else 0
	backlog int    // arrivals due but not yet taken when this one was taken

	due, taken, sent, headers, done int64

	release  string  // X-PG-Release
	estimate float64 // the answer's estimate
	err      error
}

// latency runs from the due time, so it includes any wait for a free sender.
func (e *exchange) latency() int64 { return e.done - e.due }

// service runs from the send: the time the client waits on the servers.
func (e *exchange) service() int64 { return e.done - e.sent }

// post sends one query body and decodes the answer into e.
func (s *sender) post(url string, body []byte, e *exchange) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		e.err, e.sent, e.headers, e.done = err, clock(), clock(), clock()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if e.key != "" {
		req.Header.Set("X-API-Key", e.key)
	}
	if e.trace != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(e.trace, 16))
		req.Header.Set(parentHeader, strconv.FormatUint(clientSpanID(e.trace, spanHTTP), 16))
	}
	e.sent = clock()
	resp, err := s.hc.Do(req)
	e.headers = clock()
	if err != nil {
		e.err, e.done = err, e.headers
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	e.release = resp.Header.Get("X-PG-Release")
	switch {
	case err != nil:
		e.err = err
	case resp.StatusCode != http.StatusOK:
		e.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		var ans struct {
			Estimate float64 `json:"estimate"`
		}
		e.err = json.Unmarshal(raw, &ans)
		e.estimate = ans.Estimate
	}
	e.done = clock()
}

// arrival is one entry of an open-loop schedule.
type arrival struct {
	due  time.Duration // after the phase start
	item int
}

// poisson draws an open-loop schedule for d at rate arrivals per second:
// exponential gaps, items from pick. The schedule is a pure function of
// rng's state, so the same seed sends the same requests at the same offsets.
func poisson(rng *rand.Rand, rate float64, d time.Duration, pick func() int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, item: pick()})
	}
}

// openLoop plays a schedule through the senders. A free sender takes the
// next arrival in due order and waits for its due time; when every sender is
// busy, arrivals queue, and their latency — measured from the due time —
// includes the wait. prep fills the exchange's request fields (key, trace)
// and do performs it.
//
// Only the sender holding the turn waits for a due time, and it passes the
// turn on as it sends: a waiting sender spins (see waitUntil), and two
// spinning threads on a two-core machine get descheduled for milliseconds
// at a time. The sender woken by the turn has until the next due time to
// get going, so the wake-up does not add to the latency.
func openLoop(senders []*sender, sched []arrival, prep func(e *exchange), do func(s *sender, e *exchange)) []exchange {
	ex := make([]exchange, len(sched))
	start := clock()
	turn := make(chan struct{}, 1)
	turn <- struct{}{}
	next := 0 // guarded by the turn
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				<-turn
				i := next
				next++
				if i >= len(sched) {
					turn <- struct{}{}
					return
				}
				e := &ex[i]
				e.item = sched[i].item
				e.due = start + int64(sched[i].due)
				prep(e)
				waitUntil(e.due)
				e.taken = clock()
				turn <- struct{}{}
				dueBy := sort.Search(len(sched), func(j int) bool { return start+int64(sched[j].due) > e.taken })
				e.backlog = dueBy - i - 1
				do(s, e)
			}
		}(s)
	}
	wg.Wait()
	return ex
}

// closedLoop keeps every sender busy: each takes the next item as soon as
// its previous answer is in, until next reports that none is left. With
// nproc senders it measures the rate a deployment sustains with nproc
// requests in flight, the ceiling the open-loop rates are a fraction of. It
// returns the exchanges and the phase's length in ns.
func closedLoop(senders []*sender, next func() (int, bool), prep func(e *exchange), do func(s *sender, e *exchange)) ([]exchange, int64) {
	var mu sync.Mutex // guards next, which may draw from an rng
	per := make([][]exchange, len(senders))
	start := clock()
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			for {
				mu.Lock()
				item, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				e := exchange{item: item}
				prep(&e)
				e.due = clock()
				e.taken = e.due
				do(s, &e)
				per[i] = append(per[i], e)
			}
		}(i, s)
	}
	wg.Wait()
	ns := clock() - start
	var ex []exchange
	for _, p := range per {
		ex = append(ex, p...)
	}
	return ex, ns
}

// waitUntil returns at clock time t. The runtime's timers fire up to a
// millisecond late when the process is idle, which would put a millisecond
// of generator lateness into every latency; so the generator sleeps only
// until 1.5 ms before t and yields the processor in a loop for the rest.
func waitUntil(t int64) {
	for {
		d := t - clock()
		if d <= 0 {
			return
		}
		if d > int64(2*time.Millisecond) {
			time.Sleep(time.Duration(d) - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// latencies returns the sorted times of the successful exchanges, in ms, as
// of reads them: (*exchange).latency or (*exchange).service.
func latencies(ex []exchange, of func(*exchange) int64) []float64 {
	out := make([]float64, 0, len(ex))
	for i := range ex {
		if ex[i].err == nil {
			out = append(out, float64(of(&ex[i]))/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// sliceMedians cuts a phase into one-second slices by due time and returns
// each slice's median service time in ms, skipping slices too thin for a
// median.
func sliceMedians(ex []exchange) []float64 {
	if len(ex) == 0 {
		return nil
	}
	start := ex[0].due
	var slices [][]float64
	for i := range ex {
		if ex[i].err != nil {
			continue
		}
		k := int((ex[i].due - start) / int64(time.Second))
		for len(slices) <= k {
			slices = append(slices, nil)
		}
		slices[k] = append(slices[k], float64(ex[i].service())/1e6)
	}
	var out []float64
	for _, s := range slices {
		sort.Float64s(s)
		if m, err := percentile(s, 0.5); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// genStats summarizes how well the generator kept its schedule.
func genStats(ex []exchange) (lateP99us float64, backlogMax int, err error) {
	late := make([]float64, len(ex))
	for i := range ex {
		late[i] = float64(ex[i].taken-ex[i].due) / 1e3
		if ex[i].backlog > backlogMax {
			backlogMax = ex[i].backlog
		}
	}
	sort.Float64s(late)
	lateP99us, err = percentile(late, 0.99)
	return lateP99us, backlogMax, err
}

// endpoint is one HTTP server on a loopback port.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{
		url:  "http://" + lis.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ep.done)
		ep.srv.Serve(lis) //nolint:errcheck // always ErrServerClosed after Close
	}()
	return ep, nil
}

// close stops the server and waits for its accept loop to end.
func (ep *endpoint) close() {
	ep.srv.Close()
	<-ep.done
}
