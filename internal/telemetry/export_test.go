package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseExposition does a minimal lint of the Prometheus text format:
// every non-comment line is `series value`, every series belongs to a
// family announced by a # TYPE line, histogram buckets are cumulative,
// and an +Inf bucket closes every histogram.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	values := map[string]float64{}
	var lastHistCum float64
	var lastHistFamily string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				family = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("series %q has no TYPE declaration", series)
		}
		if strings.HasSuffix(name, "_bucket") && types[family] == "histogram" {
			if family != lastHistFamily {
				lastHistFamily, lastHistCum = family, 0
			}
			if val < lastHistCum {
				t.Fatalf("histogram %s buckets not cumulative: %v after %v", family, val, lastHistCum)
			}
			lastHistCum = val
		}
		values[series] = val
	}
	return values
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("iqpaths_pgos_remaps_total", "Remap events.").Add(5)
	r.Counter("iqpaths_pgos_path_sent_total", "Per-path sends.", "path", "A").Add(100)
	r.Counter("iqpaths_pgos_path_sent_total", "Per-path sends.", "path", "B").Add(50)
	r.Gauge("iqpaths_simnet_tick", "Current tick.").Set(12.5)
	h := r.Histogram("iqpaths_transport_rtt_seconds", "Smoothed RTT.")
	for _, v := range []float64{0.01, 0.02, 0.02, 0.4} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	vals := parseExposition(t, text)

	if vals["iqpaths_pgos_remaps_total"] != 5 {
		t.Fatalf("remaps sample = %v", vals["iqpaths_pgos_remaps_total"])
	}
	if vals[`iqpaths_pgos_path_sent_total{path="A"}`] != 100 ||
		vals[`iqpaths_pgos_path_sent_total{path="B"}`] != 50 {
		t.Fatalf("labelled counters wrong:\n%s", text)
	}
	if vals["iqpaths_transport_rtt_seconds_count"] != 4 {
		t.Fatalf("hist count = %v", vals["iqpaths_transport_rtt_seconds_count"])
	}
	if !strings.Contains(text, `iqpaths_transport_rtt_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("missing +Inf bucket:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE iqpaths_transport_rtt_seconds histogram") {
		t.Fatal("missing histogram TYPE line")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("iqpaths_test_total", "", "path", `a"b\c`).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c"`) {
		t.Fatalf("label value not escaped:\n%s", buf.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("iqpaths_daemon_rx_messages_total", "Messages received.").Add(7)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, buf.String())
	if vals["iqpaths_daemon_rx_messages_total"] != 7 {
		t.Fatalf("scraped value = %v", vals["iqpaths_daemon_rx_messages_total"])
	}
}

func TestBuildSnapshotJSON(t *testing.T) {
	clk := &fakeClock{t: 150}
	reg := NewRegistry()
	reg.Counter("iqpaths_pgos_remaps_total", "").Add(3)
	reg.Gauge("iqpaths_simnet_tick", "").Set(15000)
	reg.Histogram("iqpaths_transport_rtt_seconds", "").Observe(0.025)
	tr := NewTracer(clk, 8)
	tr.Emit("remap", "", "", 1)
	a := NewAccountant(clk, reg, tr, 1, []StreamSLO{{Name: "Atom", QuotaPackets: 10}})
	a.ObserveDelivery(0, 12000, false)
	a.CloseWindow()

	snap := BuildSnapshot(clk, reg, a, tr)
	if snap.TakenAt != 150 {
		t.Fatalf("taken at = %v", snap.TakenAt)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if back.Counters["iqpaths_pgos_remaps_total"] != 3 {
		t.Fatalf("counter lost: %+v", back.Counters)
	}
	if len(back.Streams) != 1 || back.Streams[0].ViolatedWindows != 1 {
		t.Fatalf("streams lost: %+v", back.Streams)
	}
	if len(back.Events) != 2 { // remap emit + violation from CloseWindow
		t.Fatalf("events = %d", len(back.Events))
	}
	if back.Histograms["iqpaths_transport_rtt_seconds"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
