package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"iqpaths/internal/gossip"
	"iqpaths/internal/overlay"
)

// testSink builds a warmed sink admission plane plus its HTTP mux, the
// same wiring startHTTP performs for the sink role.
func testSink(t *testing.T, shards int) (*daemonAdmission, *http.ServeMux) {
	t.Helper()
	adm := newDaemonAdmission(100, shards)
	for i := 0; i < 150; i++ {
		adm.observe(10) // 90 Mbps of steady headroom feeds every shard's CDF
	}
	mux := http.NewServeMux()
	adm.register(mux)
	(&daemonGossip{adm: adm}).register(mux)
	return adm, mux
}

func do(mux *http.ServeMux, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

// decodeError parses the {"error": ...} body every failure answer uses.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error body Content-Type = %q, want application/json", ct)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, w.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("error body missing error field: %s", w.Body.String())
	}
	return e.Error
}

func TestAdmitHandlerErrors(t *testing.T) {
	_, mux := testSink(t, 1)
	cases := []struct {
		name, method, target string
		status               int
		errSub               string
	}{
		{"wrong method", http.MethodGet, "/admission/admit?name=x&mbps=5", http.StatusMethodNotAllowed, "not allowed"},
		{"missing name", http.MethodPost, "/admission/admit?mbps=5", http.StatusBadRequest, "missing name"},
		{"missing mbps", http.MethodPost, "/admission/admit?name=x", http.StatusBadRequest, "mbps"},
		{"garbage mbps", http.MethodPost, "/admission/admit?name=x&mbps=lots", http.StatusBadRequest, "mbps"},
		{"negative mbps", http.MethodPost, "/admission/admit?name=x&mbps=-3", http.StatusBadRequest, "mbps"},
		{"p out of range", http.MethodPost, "/admission/admit?name=x&mbps=5&p=1.5", http.StatusBadRequest, "p parameter"},
		{"release wrong method", http.MethodGet, "/admission/release?name=x", http.StatusMethodNotAllowed, "not allowed"},
		{"release missing name", http.MethodPost, "/admission/release", http.StatusBadRequest, "missing name"},
		{"streams wrong method", http.MethodPost, "/admission/streams", http.StatusMethodNotAllowed, "not allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(mux, tc.method, tc.target, nil)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", w.Code, tc.status, w.Body.String())
			}
			if msg := decodeError(t, w); !strings.Contains(msg, tc.errSub) {
				t.Fatalf("error %q does not mention %q", msg, tc.errSub)
			}
			if tc.status == http.StatusMethodNotAllowed && w.Header().Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}

func TestAdmitReleaseFlow(t *testing.T) {
	_, mux := testSink(t, 2)
	w := do(mux, http.MethodPost, "/admission/admit?name=Gold&mbps=20&p=0.9", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("admit status = %d\n%s", w.Code, w.Body.String())
	}
	var dec struct {
		Admitted bool
		Spec     struct{ Name string }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || dec.Spec.Name != "Gold" {
		t.Fatalf("unexpected decision: %s", w.Body.String())
	}

	if w := do(mux, http.MethodPost, "/admission/admit?name=Gold&mbps=5&p=0.9", nil); w.Code != http.StatusConflict {
		t.Fatalf("duplicate admit status = %d, want 409", w.Code)
	}

	w = do(mux, http.MethodGet, "/admission/streams", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Gold") {
		t.Fatalf("streams = %d %s", w.Code, w.Body.String())
	}

	w = do(mux, http.MethodPost, "/admission/release?name=Gold", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "true") {
		t.Fatalf("release = %d %s", w.Code, w.Body.String())
	}
	if w := do(mux, http.MethodGet, "/admission/streams", nil); strings.Contains(w.Body.String(), "Gold") {
		t.Fatalf("stream survived release: %s", w.Body.String())
	}
}

func TestAdmitRejectionIs503WithUpcall(t *testing.T) {
	_, mux := testSink(t, 1)
	w := do(mux, http.MethodPost, "/admission/admit?name=Huge&mbps=500&p=0.95", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", w.Code, w.Body.String())
	}
	var dec struct {
		Admitted     bool
		Reason       string
		BestRateMbps float64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || dec.Reason == "" {
		t.Fatalf("rejection lacks reason: %s", w.Body.String())
	}
	if dec.BestRateMbps <= 0 || dec.BestRateMbps >= 500 {
		t.Fatalf("best-rate upcall %v out of range", dec.BestRateMbps)
	}
}

// TestGossipRepairRoundTrip replays the daemon-to-daemon repair
// conversation in-process: daemon A admits streams and publishes, then
// daemon B fetches A's digest, asks for the delta it is missing, and
// ingests it — after which B's replica table covers A's records and A
// has nothing left to send B.
func TestGossipRepairRoundTrip(t *testing.T) {
	admA, muxA := testSink(t, 2)
	admB, muxB := testSink(t, 2)

	for _, q := range []string{"name=Gold&mbps=20&p=0.9", "name=Silver&mbps=10&p=0.9"} {
		if w := do(muxA, http.MethodPost, "/admission/admit?"+q, nil); w.Code != http.StatusOK {
			t.Fatalf("admit %s: %d %s", q, w.Code, w.Body.String())
		}
	}
	admA.publish()
	if len(admA.adm.ReplicaRecords()) == 0 {
		t.Fatal("publish originated nothing")
	}

	// B asks A for everything newer than B's (empty) digest.
	w := do(muxB, http.MethodGet, "/gossip/digest", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET digest: %d", w.Code)
	}
	w = do(muxA, http.MethodPost, "/gossip/digest", w.Body.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("POST digest: %d %s", w.Code, w.Body.String())
	}
	delta, err := gossip.ParseDelta(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != len(admA.adm.ReplicaRecords()) {
		t.Fatalf("delta carries %d records, want %d", len(delta), len(admA.adm.ReplicaRecords()))
	}
	if w := do(muxB, http.MethodPost, "/gossip/push", w.Body.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("push: %d %s", w.Code, w.Body.String())
	}
	bd := admB.adm.Digest()
	for _, r := range admA.adm.ReplicaRecords() {
		if bd[r.Origin] < r.Seq {
			t.Fatalf("B's digest does not cover %+v after push", r)
		}
	}

	// Now that B is caught up, A's answer to B's digest must be empty.
	w = do(muxB, http.MethodGet, "/gossip/digest", nil)
	w = do(muxA, http.MethodPost, "/gossip/digest", w.Body.Bytes())
	delta, err = gossip.ParseDelta(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("repaired peer still owed %d records", len(delta))
	}
}

func TestGossipRejectsMalformedBodies(t *testing.T) {
	_, mux := testSink(t, 1)
	if w := do(mux, http.MethodPost, "/gossip/digest", []byte("not a digest")); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed digest: %d, want 400", w.Code)
	} else {
		decodeError(t, w)
	}
	if w := do(mux, http.MethodPost, "/gossip/push", []byte{0xff, 0x00, 0x01}); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed delta: %d, want 400", w.Code)
	} else {
		decodeError(t, w)
	}
	if w := do(mux, http.MethodDelete, "/gossip/digest", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE digest: %d, want 405", w.Code)
	}
	if w := do(mux, http.MethodGet, "/gossip/push", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET push: %d, want 405", w.Code)
	}
}

// TestGossipPushHostileOrigins pushes admission records whose origins
// sit at the extremes of the id range, as an unchecked peer may send
// them, plus one record for a shard this sink does not host and one
// outside the admission namespace. The push reports only the records
// that changed the table, and a repeat reports none; the digest then
// names the extreme origins, and a digest naming them gets back exactly
// the record it is behind on.
func TestGossipPushHostileOrigins(t *testing.T) {
	_, mux := testSink(t, 2)
	origins := []overlay.NodeID{1 << 62, -1 << 62, math.MinInt64}
	var recs []gossip.Record
	for i, o := range origins {
		recs = append(recs, gossip.Record{Key: gossip.AdmissionKey(i%2, i), Up: true, Mbps: 3, Origin: o, Seq: uint64(10 + i)})
	}
	skipped := []gossip.Record{
		{Key: gossip.AdmissionKey(5, 0), Up: true, Mbps: 3, Origin: 1 << 62, Seq: 99},
		{Key: gossip.LinkKey{From: 1, To: 2}, Up: true, Mbps: 3, Origin: 1 << 62, Seq: 99},
	}
	delta := gossip.EncodeDelta(append(append([]gossip.Record(nil), recs...), skipped...))
	for _, want := range []int{len(recs), 0} {
		w := do(mux, http.MethodPost, "/gossip/push", delta)
		if w.Code != http.StatusOK {
			t.Fatalf("push: %d %s", w.Code, w.Body.String())
		}
		var got struct{ Applied int }
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got.Applied != want {
			t.Fatalf("push reported %s, want applied=%d", w.Body.String(), want)
		}
	}

	w := do(mux, http.MethodGet, "/gossip/digest", nil)
	d, err := gossip.ParseDigest(w.Body.Bytes())
	if err != nil {
		t.Fatalf("GET digest: %v", err)
	}
	want := gossip.Digest{}
	for _, r := range recs {
		want[r.Origin] = r.Seq
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("digest = %v, want %v", d, want)
	}

	d[math.MinInt64]--
	w = do(mux, http.MethodPost, "/gossip/digest", gossip.EncodeDigest(d))
	if w.Code != http.StatusOK {
		t.Fatalf("POST digest: %d %s", w.Code, w.Body.String())
	}
	got, err := gossip.ParseDelta(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != recs[2] {
		t.Fatalf("delta for a digest one behind on MinInt64 = %+v, want %+v", got, recs[2])
	}
}

// TestGossipPushManyOrigins pushes full-size deltas in which every
// record names a new origin, ascending into one sink and descending into
// another. Ingesting them costs the same in either order (a sorted
// insert per origin would make the descending pushes quadratic, holding
// the admission lock for seconds), and the digest then covers every
// origin.
func TestGossipPushManyOrigins(t *testing.T) {
	const perPush, pushes = 50000, 2
	push := func(descending bool) time.Duration {
		_, mux := testSink(t, 2)
		var took time.Duration
		for p := 0; p < pushes; p++ {
			recs := make([]gossip.Record, perPush)
			for i := range recs {
				o := overlay.NodeID(p*perPush + i)
				if descending {
					o = overlay.NodeID(pushes*perPush - 1 - p*perPush - i)
				}
				recs[i] = gossip.Record{Key: gossip.AdmissionKey(0, 0), Up: true, Mbps: 1, Origin: o, Seq: 1}
			}
			delta := gossip.EncodeDelta(recs)
			if len(delta) > maxGossipBody {
				t.Fatalf("delta of %d records is %d bytes, over the %d-byte limit", perPush, len(delta), maxGossipBody)
			}
			start := time.Now()
			w := do(mux, http.MethodPost, "/gossip/push", delta)
			took += time.Since(start)
			if w.Code != http.StatusOK {
				t.Fatalf("push: %d %s", w.Code, w.Body.String())
			}
		}
		d, err := gossip.ParseDigest(do(mux, http.MethodGet, "/gossip/digest", nil).Body.Bytes())
		if err != nil {
			t.Fatalf("GET digest: %v", err)
		}
		for o := overlay.NodeID(0); o < pushes*perPush; o++ {
			if d[o] != 1 {
				t.Fatalf("digest[%d] = %d, want 1", o, d[o])
			}
		}
		return took
	}
	asc, desc := push(false), push(true)
	if desc > 4*asc && desc > 250*time.Millisecond {
		t.Fatalf("descending-origin pushes took %v, ascending %v", desc, asc)
	}
}
