package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rcbcast/internal/dist"
	"rcbcast/internal/scenario"
	"rcbcast/internal/service"
)

// lineCheck is an io.Writer that compares a stream, line by line, with
// the sweep path's output for the same round.
type lineCheck struct {
	ref       []byte // reference lines not yet matched
	part      []byte // an incomplete trailing line
	identical int
	extra     int
}

func newLineCheck(ref []byte) *lineCheck { return &lineCheck{ref: ref} }

func (c *lineCheck) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.part = append(c.part, p...)
			break
		}
		line := p[:i+1]
		if len(c.part) > 0 {
			c.part = append(c.part, line...)
			line = c.part
		}
		c.line(line)
		c.part = c.part[:0]
		p = p[i+1:]
	}
	return n, nil
}

func (c *lineCheck) line(l []byte) {
	j := bytes.IndexByte(c.ref, '\n')
	if j < 0 {
		c.extra++
		return
	}
	if bytes.Equal(l, c.ref[:j+1]) {
		c.identical++
	}
	c.ref = c.ref[j+1:]
}

// outcome judges the checked stream as a path's delivery of trials.
// A torn last line counts as extra.
func (c *lineCheck) outcome(trials int) outcome {
	o := outcome{trials: trials, identical: c.identical, extra: c.extra}
	if len(c.part) > 0 {
		o.extra++
	}
	return o
}

// tap is the benchmark's HTTP transport. It sorts job submissions by
// status — a 200 is a job that already existed, so its bytes would be
// replayed rather than computed — and times each submit and the wait
// for each result stream's first byte.
type tap struct {
	rt http.RoundTripper

	mu        sync.Mutex
	dedupes   int
	submitMs  []float64
	firstMs   []float64
	bodyBytes int64
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		t.mu.Lock()
		t.submitMs = append(t.submitMs, ms(time.Since(start)))
		if resp.StatusCode == http.StatusOK {
			t.dedupes++
		}
		t.mu.Unlock()
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/results"):
		resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	}
	return resp, nil
}

// dedupeCount snapshots the number of submits that hit an existing job,
// so a round can tell whether it caused one.
func (t *tap) dedupeCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dedupes
}

// timedBody records when a result stream's first byte arrived and how
// many bytes it carried.
type timedBody struct {
	io.ReadCloser
	t     *tap
	start time.Time
	seen  bool
	n     int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && !b.seen {
		b.seen = true
		b.t.mu.Lock()
		b.t.firstMs = append(b.t.firstMs, ms(time.Since(b.start)))
		b.t.mu.Unlock()
	}
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	b.t.mu.Lock()
	b.t.bodyBytes += b.n
	b.t.mu.Unlock()
	return b.ReadCloser.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// server is one in-process rcserved: a service.Manager behind
// service.NewServer on a loopback listener.
type server struct {
	m      *service.Manager
	dir    string
	srv    *http.Server
	url    string
	served chan error
	// doneSeen and removed track job directories for jobsNotClean.
	doneSeen, removed map[string]bool
}

func startServer(dir string, procs int) (*server, error) {
	m, err := service.NewManager(service.Config{Dir: dir, Procs: procs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close(context.Background())
		return nil, err
	}
	s := &server{m: m, dir: dir, srv: &http.Server{Handler: service.NewServer(m)}, url: "http://" + ln.Addr().String(), served: make(chan error, 1),
		doneSeen: map[string]bool{}, removed: map[string]bool{}}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener and its connections, waits for Serve to
// return, then drains the manager.
func (s *server) close() error {
	cerr := s.srv.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(cerr, s.m.Close(ctx))
}

// jobsNotClean reports how many of the server's jobs failed, were
// canceled or went through a partial (interrupted, then resumed)
// attempt. A shard job may still read running here: the coordinator
// stops reading once it has every line.
//
// It also deletes the store directories of jobs that were already done
// at the previous call, so a long run's journals do not pile up on
// disk. A job reads done slightly before its record is last written,
// hence the one-call delay.
func (s *server) jobsNotClean() (int, error) {
	bad := 0
	for _, st := range s.m.List() {
		if st.State == service.StateFailed || st.State == service.StateCanceled || st.PartialErrors > 0 {
			bad++
		}
		if st.State != service.StateDone || s.removed[st.ID] {
			continue
		}
		if !s.doneSeen[st.ID] {
			s.doneSeen[st.ID] = true
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.dir, st.ID)); err != nil {
			return bad, err
		}
		s.removed[st.ID] = true
	}
	return bad, nil
}

// rig holds the in-process servers of one run: the service path's
// rcserved at procs = nproc and the dist path's two workers at procs 1,
// each on a fresh job store.
type rig struct {
	client  *http.Client
	tap     *tap
	service *server
	workers []*server
	// bad counts each server's not-clean jobs seen so far.
	bad map[*server]int
}

func newRig(root string, procs int) (*rig, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.MaxIdleConnsPerHost = 16
	t := &tap{rt: tr}
	r := &rig{client: &http.Client{Transport: t}, tap: t, bad: map[*server]int{}}
	var err error
	if r.service, err = startServer(filepath.Join(root, "service"), procs); err != nil {
		return nil, err
	}
	for i := range 2 {
		w, err := startServer(filepath.Join(root, fmt.Sprintf("worker%d", i)), 1)
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

func (r *rig) close() error {
	var errs []error
	for _, s := range append([]*server{r.service}, r.workers...) {
		if s != nil {
			errs = append(errs, s.close())
		}
	}
	r.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// newlyBad reports whether any of the servers gained a not-clean job
// since the last call.
func (r *rig) newlyBad(servers ...*server) (bool, error) {
	grew := false
	for _, s := range servers {
		n, err := s.jobsNotClean()
		if err != nil {
			return false, err
		}
		if n > r.bad[s] {
			grew = true
		}
		r.bad[s] = n
	}
	return grew, nil
}

// submitRequest mirrors the POST /v1/jobs body.
type submitRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	Trials   int             `json:"trials"`
	BaseSeed uint64          `json:"base_seed"`
}

// servicePath sends the round's sweep through the service path: from
// POST /v1/jobs to EOF on GET /v1/jobs/{id}/results, checking the
// stream against ref as it arrives.
func (r *rig) servicePath(ctx context.Context, js []byte, trials int, base uint64, ref []byte) (outcome, error) {
	o := outcome{trials: trials}
	body, err := json.Marshal(submitRequest{Scenario: js, Trials: trials, BaseSeed: base})
	if err != nil {
		return o, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.service.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	req.Header.Set("X-Client-ID", "perfbench")
	resp, err := r.client.Do(req)
	if err != nil {
		o.failed = true
		return o, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		o.failed = true
		return o, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		o.refused = true
		return o, nil
	case resp.StatusCode == http.StatusOK:
		o.replayed = true
		return o, nil
	case resp.StatusCode != http.StatusAccepted:
		o.failed = true
		return o, nil
	}
	var st service.Status
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		o.failed = true
		return o, nil
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, r.service.url+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		return o, err
	}
	resp, err = r.client.Do(req)
	if err != nil {
		o.failed = true
		return o, nil
	}
	chk := newLineCheck(ref)
	_, err = io.Copy(chk, resp.Body)
	resp.Body.Close()
	res := chk.outcome(trials)
	res.failed = err != nil || resp.StatusCode != http.StatusOK
	return res, nil
}

// distPath sends the round's sweep through dist.New and Coordinator.Run
// over the two workers, checking the merged stream against ref. When
// watch is set it also samples the merge window's occupancy.
func (r *rig) distPath(ctx context.Context, sc scenario.Scenario, trials int, base uint64, ref []byte, watch bool) (outcome, dist.Metrics, int, error) {
	o := outcome{trials: trials}
	urls := make([]string, len(r.workers))
	for i, w := range r.workers {
		urls[i] = w.url
	}
	c, err := dist.New(dist.Config{Workers: urls, Client: r.client})
	if err != nil {
		return o, dist.Metrics{}, 0, err
	}
	peak := 0
	stop, sampled := make(chan struct{}), make(chan struct{})
	if watch {
		go func() {
			defer close(sampled)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				peak = max(peak, c.Metrics().WindowBufferedLines)
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	} else {
		close(sampled)
	}
	chk := newLineCheck(ref)
	_, runErr := c.Run(ctx, sc, trials, base, chk)
	close(stop)
	<-sampled
	m := c.Metrics()
	peak = max(peak, m.WindowBufferedLines)
	res := chk.outcome(trials)
	res.failed = runErr != nil
	res.replayed = m.ResumedShards > 0
	return res, m, peak, nil
}
