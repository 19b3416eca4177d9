package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Past this many consecutive 409 "sequence window" answers to one batch
// the lap fails. A client that streams right after the last preamble is
// refused on almost every session — the replay goroutines have not
// advanced the node's window yet — and a 200 µs pause clears it within a
// few tries (see README, "Findings").
const (
	windowRetryLimit = 1000
	windowRetryPause = 200 * time.Microsecond
)

// sessionResult is one complete ingest session as the poster saw it.
type sessionResult struct {
	work      time.Duration   // begin -> status reports final
	acks      []time.Duration // every batch POST -> 202
	query     time.Duration   // first GET /stats on the sealed trace
	retries   int64           // 409 sequence-window answers retried
	firstSeal time.Duration   // begin -> live trace answers 200 (watched sessions only)
	finishLag time.Duration   // last ack -> final
	seals     float64         // frame-group seals the daemon published
	bytes     int64           // sealed file size
}

// loadBatches reads each node's raw stream and cuts it for posting.
func loadBatches(raws []string) ([][][]byte, error) {
	out := make([][][]byte, len(raws))
	for i, p := range raws {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if out[i], err = cutBatches(data); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(out[i]) < 2 {
			return nil, fmt.Errorf("%s: the whole stream is preamble", p)
		}
	}
	return out, nil
}

// ingestSession drives one live trace end to end: begin, every node's
// preamble, then one poster connection per node streaming its batches in
// order (the write path's contract is one stream per node: the live
// merge advances only while every node delivers, so fewer posters than
// nodes would deadlock against the bounded queues), poll until final,
// and one statistics query on the just-sealed trace. The sealed file
// must be byte-identical to refSHA — the batch pipeline's output over
// the same streams. The trace is closed and its file removed before
// returning. watch adds a poller for the first queryable seal.
func (b *bench) ingestSession(sp *span, d *daemon, ingestDir, name string, batches [][][]byte, refSHA string, watch bool) (sessionResult, error) {
	var r sessionResult
	base := d.url + "/v1/ingest/" + name
	seals0 := 0.0
	if watch {
		seals0 = b.scrape(d.url)["tracesvc_ingest_seals_total"]
	}
	t0 := time.Now()
	data, _, err := b.expect(sp, "ingest", "begin", "POST", fmt.Sprintf("%s?op=begin&nodes=%d", base, len(batches)), nil, http.StatusCreated)
	if err != nil {
		return r, err
	}
	var began struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &began); err != nil || began.ID == "" {
		return r, fmt.Errorf("ingest begin: bad response %q", data)
	}
	traceURL := d.url + "/v1/traces/" + began.ID
	defer func() {
		b.expect(sp, "tracesvc", "close", "DELETE", traceURL, nil, http.StatusNoContent)
		os.Remove(filepath.Join(ingestDir, name+".ute"))
	}()

	var sealed atomic.Bool
	var watcher sync.WaitGroup
	if watch {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			for !sealed.Load() && time.Since(t0) < time.Minute {
				resp, err := httpClient.Get(traceURL)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						r.firstSeal = time.Since(t0)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	stopWatch := func() { sealed.Store(true); watcher.Wait() }

	for n := range batches {
		if _, _, err := b.expect(sp, "ingest", "preamble", "POST", fmt.Sprintf("%s?node=%d&seq=0", base, n), batches[n][0], http.StatusAccepted); err != nil {
			stopWatch()
			return r, err
		}
	}

	var mu sync.Mutex
	var firstErr error
	var lastAck time.Time
	var posters sync.WaitGroup
	for n := range batches {
		posters.Add(1)
		go func(n int) {
			defer posters.Done()
			acks := make([]time.Duration, 0, len(batches[n]))
			var retries int64
			var err error
		stream:
			for seq := 1; seq < len(batches[n]); seq++ {
				url := fmt.Sprintf("%s?node=%d&seq=%d", base, n, seq)
				if seq == len(batches[n])-1 {
					url += "&last=1"
				}
				// One booked operation per batch, however many times the
				// sequence window makes the poster re-send it.
				b.attempted.Add(1)
				for try := 0; ; try++ {
					code, body, dur, derr := b.roundTrip(sp, "ingest", "batch", "POST", url, batches[n][seq])
					if derr == nil && code == http.StatusAccepted {
						acks = append(acks, dur)
						break
					}
					if derr == nil && code == http.StatusConflict && strings.Contains(string(body), "sequence window") && try < windowRetryLimit {
						retries++
						time.Sleep(windowRetryPause)
						continue
					}
					if derr == nil {
						derr = fmt.Errorf("status %d: %s", code, lastLine(body))
					}
					b.fail("POST %s: %v", url, derr)
					err = derr
					break stream
				}
			}
			now := time.Now()
			mu.Lock()
			r.acks = append(r.acks, acks...)
			r.retries += retries
			if now.After(lastAck) {
				lastAck = now
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(n)
	}
	posters.Wait()
	if firstErr != nil {
		stopWatch()
		b.roundTrip(sp, "ingest", "abort", "POST", base+"?op=abort", nil)
		return r, firstErr
	}

	for deadline := time.Now().Add(60 * time.Second); ; {
		data, _, err := b.expect(sp, "ingest", "status", "GET", base, nil, http.StatusOK)
		if err != nil {
			stopWatch()
			return r, err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
			Final bool   `json:"final"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			stopWatch()
			return r, fmt.Errorf("ingest status: %w", err)
		}
		if st.Final {
			break
		}
		if st.Error != "" || time.Now().After(deadline) {
			stopWatch()
			b.fail("ingest %s: state %s error %q, never final", name, st.State, st.Error)
			return r, fmt.Errorf("ingest %s did not finish", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
	done := time.Now()
	r.work, r.finishLag = done.Sub(t0), done.Sub(lastAck)
	watcher.Wait() // a final trace answers 200, so the poller ends by itself

	if _, r.query, err = b.expect(sp, "tracesvc", "stats", "GET", traceURL+"/stats", nil, http.StatusOK); err != nil {
		return r, err
	}
	if watch {
		r.seals = b.scrape(d.url)["tracesvc_ingest_seals_total"] - seals0
	}
	path := filepath.Join(ingestDir, name+".ute")
	r.bytes = fileSize(path)
	sum, err := sha256File(path)
	b.check(err == nil && sum == refSHA, "ingest %s: sealed file differs from uteconvert→utemerge over the same streams", name)
	return r, nil
}

// ingestWorkload is ingest_live_2x4: the write path.
type ingestWorkload struct {
	b  *bench
	sh shape

	dir       string
	ingestDir string
	k         *traceKit
	batches   [][][]byte
	refSHA    string
	d         *daemon
	sessions  int
	sealed    int64 // size of the last sealed live file
}

// ingestReference builds in dir what a finished live ingest of k's raw
// streams must equal — uteconvert → utemerge without clock-ratio
// adjustment — and returns its hash.
func (b *bench) ingestReference(sp *span, k *traceKit, dir string) (string, error) {
	if k.opts.noAdjust {
		return sha256File(k.merged)
	}
	ref, _, _, err := b.mergeTo(sp, mergeOpts{noAdjust: true, outPrefix: "ref-"}, dir, k.utes)
	if err != nil {
		return "", err
	}
	return sha256File(ref)
}

func (w *ingestWorkload) setup(sp *span) error {
	b := w.b
	w.dir = filepath.Join(b.tmp, "ingest")
	w.ingestDir = filepath.Join(w.dir, "live")
	if err := os.MkdirAll(w.ingestDir, 0o755); err != nil {
		return err
	}
	// The kit's merged file is itself the reference a live ingest must
	// reproduce, so it is merged without clock-ratio adjustment.
	var err error
	if w.k, err = b.buildKit(sp, w.sh, mergeOpts{noAdjust: true}, w.dir); err != nil {
		return err
	}
	if _, _, err = b.validate(sp, w.k.merged); err != nil {
		return err
	}
	if w.refSHA, err = b.ingestReference(sp, w.k, w.dir); err != nil {
		return err
	}
	if w.batches, err = loadBatches(w.k.raws); err != nil {
		return err
	}
	w.d, err = b.startDaemon("utetraced", "-addr", "127.0.0.1:0", "-ingest-dir", w.ingestDir)
	return err
}

func (w *ingestWorkload) teardown() {
	w.b.stopDaemon(w.d)
	w.d = nil
	os.RemoveAll(w.dir)
}

func (w *ingestWorkload) lap(sp *span) (lapSample, error) {
	w.sessions++
	r, err := w.b.ingestSession(sp, w.d, w.ingestDir, fmt.Sprintf("live-%d", w.sessions), w.batches, w.refSHA, false)
	if err != nil {
		return lapSample{}, err
	}
	w.sealed = r.bytes
	return lapSample{work: r.work, lat: r.acks, query: []time.Duration{r.query}}, nil
}

func (w *ingestWorkload) units() float64         { return float64(w.k.events) }
func (w *ingestWorkload) bytesPerEvent() float64 { return float64(w.sealed) / float64(w.k.events) }
func (w *ingestWorkload) peakRSSMB() float64     { return w.d.hwmMB() }
func (w *ingestWorkload) daemons() []*daemon     { return []*daemon{w.d} }
func (w *ingestWorkload) kit() *traceKit         { return w.k }
