package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// record is one request of the closed loop as the client saw it.
type record struct {
	req    *request
	sent   time.Duration // since the window opened
	done   time.Duration
	status int
	body   []byte
	err    error
}

func (r *record) latency() time.Duration { return r.done - r.sent }

// newClient returns a client that keeps one connection alive to each
// host it talks to. Every workload drives finwld over one connection:
// on the 2-vCPU VM the benchmark was tuned on, two connections spread
// throughput by 23–29 % between runs of the same code, one by 5–14 %.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one generated request and reads its whole reply.
func post(client *http.Client, base string, q *request) (int, []byte, error) {
	resp, err := client.Post(base+q.path(), "application/json", bytes.NewReader(q.Body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// warmUp sends w's warm-up requests and returns the first transport or
// HTTP failure. Nothing is timed.
func warmUp(client *http.Client, base string, w *workload) error {
	for i := 0; i < w.Warm; i++ {
		status, body, err := post(client, base, w.gen(i))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%d %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// closedLoop drives w's requests from index w.Warm for d, sending each
// request only when the previous reply has arrived. The request in
// flight when the window closes completes and is returned too.
func closedLoop(client *http.Client, base string, w *workload, d time.Duration) []record {
	recs := make([]record, 0, 1<<12)
	start := time.Now()
	for i := w.Warm; time.Since(start) < d; i++ {
		q := w.gen(i)
		r := record{req: q, sent: time.Since(start)}
		r.status, r.body, r.err = post(client, base, q)
		r.done = time.Since(start)
		recs = append(recs, r)
	}
	return recs
}
