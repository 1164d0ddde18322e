package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blackboxflow/perfbench/gen"
)

// doc is a pre-generated job document with the summary of its expected
// result.
type doc struct {
	index int
	body  []byte
	want  gen.Want
}

// outcome is one job as the client saw it.
type outcome struct {
	doc        *doc
	start, end time.Time
	status     int
	body       []byte
	err        error // transport error, or the result check's verdict
	id         int64
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// ok reports whether the job returned 200 with the expected rows.
func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// newClient returns an HTTP client that keeps one connection per
// closed-loop client alive.
func newClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// submit posts one document with ?wait=1 and reads the answer to its last
// byte. The result check is left to the caller.
func submit(ctx context.Context, client *http.Client, url string, d *doc) outcome {
	o := outcome{doc: d}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/jobs?wait=1", bytes.NewReader(d.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	o.start = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.end = time.Now()
		o.err = err
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	o.end = time.Now()
	resp.Body.Close()
	o.status = resp.StatusCode
	return o
}

// check verifies the outcome's status and rows and records the job ID.
func (o *outcome) check() {
	if o.err != nil {
		return
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("job %d: HTTP %d: %.200s", o.doc.index, o.status, o.body)
		return
	}
	o.id, o.err = o.doc.want.Check(o.body)
}

// window is the result of one timed closed-loop window.
type window struct {
	outcomes []outcome
	start    time.Time
	end      time.Time // last completion
	// exhausted is set when every pre-generated document was sent before
	// the deadline.
	exhausted bool
}

// runWindow drives the documents through POST /jobs?wait=1 from `clients`
// closed-loop clients until the deadline passes: each client sends its
// next job only after the previous one returned. Result checks run after
// the window, so the clients only send and read.
func runWindow(ctx context.Context, url string, docs []*doc, clients int, d time.Duration) (*window, error) {
	client := newClient(clients)
	defer client.CloseIdleConnections()
	w := &window{outcomes: make([]outcome, len(docs))}
	var next atomic.Int64
	w.start = time.Now()
	deadline := w.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				w.outcomes[i] = submit(ctx, client, url, docs[i])
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	n := int(min(next.Load(), int64(len(docs))))
	w.exhausted = n == len(docs) && time.Now().Before(deadline)
	w.outcomes = w.outcomes[:n]
	for i := range w.outcomes {
		if e := w.outcomes[i].end; e.After(w.end) {
			w.end = e
		}
	}
	return w, nil
}
