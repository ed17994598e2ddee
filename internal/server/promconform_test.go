package server_test

import (
	"encoding/json"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"perspector/internal/fleet"
	"perspector/internal/jobs"
	"perspector/internal/server"
)

// The exposition-format grammar, per the Prometheus text format spec.
var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseProm is a strict text-format parser: it decomposes every line of
// an exposition and fails the test on any deviation — unknown escape
// sequences, missing HELP/TYPE, series before their TYPE, bad metric or
// label names, unparseable values. It returns series name → label-set →
// value and name → declared type.
func parseProm(t *testing.T, body string) (map[string]map[string]float64, map[string]string) {
	t.Helper()
	series := make(map[string]map[string]float64)
	types := make(map[string]string)
	helped := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		ln++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promMetricName.MatchString(name) {
				t.Fatalf("line %d: bad HELP %q", ln, line)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !promMetricName.MatchString(fields[0]) {
				t.Fatalf("line %d: bad TYPE %q", ln, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln, fields[1])
			}
			if !helped[fields[0]] {
				t.Fatalf("line %d: TYPE for %s without preceding HELP", ln, fields[0])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln, line)
		}
		name, labels, value := parsePromSeries(t, ln, line)
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			ft := types[base]
			if base != name && (ft == "histogram" || ft == "summary") {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: series %s has no preceding TYPE", ln, name)
		}
		if series[name] == nil {
			series[name] = make(map[string]float64)
		}
		if _, dup := series[name][labels]; dup {
			t.Fatalf("line %d: duplicate series %s{%s}", ln, name, labels)
		}
		series[name][labels] = value
	}
	return series, types
}

// parsePromSeries decomposes one sample line, validating label syntax
// and escape sequences character by character.
func parsePromSeries(t *testing.T, ln int, line string) (name, labels string, value float64) {
	t.Helper()
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else {
		nameEnd = strings.IndexByte(rest, ' ')
	}
	if nameEnd < 0 {
		t.Fatalf("line %d: no value separator in %q", ln, line)
	}
	name = rest[:nameEnd]
	if !promMetricName.MatchString(name) {
		t.Fatalf("line %d: bad metric name %q", ln, name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		end := parsePromLabels(t, ln, rest)
		labels = rest[1 : end-1]
		rest = rest[end:]
	}
	rest = strings.TrimPrefix(rest, " ")
	// A value is a float, possibly +Inf/-Inf/NaN; no timestamp is used
	// in this exposition.
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	return name, labels, v
}

// parsePromLabels validates a {label="value",...} block starting at
// s[0] == '{' and returns the index just past the closing brace. Only
// \\, \" and \n escapes are legal inside a value.
func parsePromLabels(t *testing.T, ln int, s string) int {
	t.Helper()
	i := 1
	for {
		if i >= len(s) {
			t.Fatalf("line %d: unterminated label block", ln)
		}
		if s[i] == '}' {
			return i + 1
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			t.Fatalf("line %d: label without '=' in %q", ln, s[i:])
		}
		lname := s[i : i+eq]
		if !promLabelName.MatchString(lname) {
			t.Fatalf("line %d: bad label name %q", ln, lname)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			t.Fatalf("line %d: label %s value not quoted", ln, lname)
		}
		i++
		for {
			if i >= len(s) {
				t.Fatalf("line %d: unterminated label value for %s", ln, lname)
			}
			if s[i] == '"' {
				i++
				break
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					t.Fatalf("line %d: dangling backslash in label %s", ln, lname)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					t.Fatalf("line %d: illegal escape \\%c in label %s", ln, s[i+1], lname)
				}
				i += 2
				continue
			}
			i++
		}
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// TestMetricsPrometheusConformance scrapes the full live exposition —
// request counters, queue telemetry histograms, stream gauges and the
// coordinator's fleet view with a joined node — through the strict
// parser, then checks the histogram contract: cumulative le buckets
// ending in +Inf, with the +Inf bucket equal to _count.
func TestMetricsPrometheusConformance(t *testing.T) {
	var sm *jobs.StreamManager
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, func(cfg *server.Config) {
		sm = jobs.NewStreamManager(jobs.StreamOptions{Store: cfg.Store, Log: discardLog()})
		cfg.Streams = sm
		cfg.Coordinator = fleet.NewCoordinator(fleet.CoordinatorOptions{Log: discardLog()})
	})
	t.Cleanup(func() { sm.Drain(t.Context()) })

	// Execute one job so the span-fold histograms have samples, and join
	// one fleet node so the node-labeled gauges emit series.
	code, data := env.do(t, "POST", "/api/v1/jobs", scoreBody(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if code, _ = env.do(t, "GET", "/api/v1/jobs/"+sub.Job.ID+"/result?wait=1", nil); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	code, data = env.do(t, "POST", "/api/v1/fleet/join",
		fleet.JoinRequest{NodeID: "node-a", Capacity: 2, GOARCH: runtime.GOARCH})
	if code != http.StatusOK {
		t.Fatalf("join: %d %s", code, data)
	}

	_, body := env.do(t, "GET", "/metrics", nil)
	series, types := parseProm(t, string(body))

	// Every histogram family must expose cumulative buckets with +Inf,
	// and agree with its _count.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		buckets := series[fam+"_bucket"]
		counts := series[fam+"_count"]
		if len(buckets) == 0 {
			t.Errorf("histogram %s has no _bucket series", fam)
			continue
		}
		// Group buckets by their non-le labels.
		type acc struct {
			inf   float64
			seen  bool
			count []float64
		}
		byGroup := make(map[string]*acc)
		for labels, v := range buckets {
			var le string
			var rest []string
			for _, part := range splitPromLabels(labels) {
				if strings.HasPrefix(part, "le=") {
					le = strings.Trim(strings.TrimPrefix(part, "le="), `"`)
				} else {
					rest = append(rest, part)
				}
			}
			key := strings.Join(rest, ",")
			a := byGroup[key]
			if a == nil {
				a = &acc{}
				byGroup[key] = a
			}
			if le == "+Inf" {
				a.inf, a.seen = v, true
			}
			a.count = append(a.count, v)
		}
		for key, a := range byGroup {
			if !a.seen {
				t.Errorf("histogram %s{%s} missing le=\"+Inf\"", fam, key)
				continue
			}
			for _, v := range a.count {
				if v > a.inf {
					t.Errorf("histogram %s{%s}: bucket %g exceeds +Inf %g (not cumulative)", fam, key, v, a.inf)
				}
			}
			if c, ok := counts[key]; !ok || c != a.inf {
				t.Errorf("histogram %s{%s}: +Inf %g != _count %v", fam, key, a.inf, counts[key])
			}
		}
	}

	// The fleet view must have emitted the node-labeled series.
	for _, name := range []string{"perspectord_fleet_node_pending", "perspectord_fleet_node_instr_per_sec"} {
		if len(series[name]) != 1 {
			t.Errorf("%s: want 1 node series, got %v", name, series[name])
		}
	}
	// Spot-check families that must always be present.
	for _, name := range []string{
		"perspectord_requests_total", "perspectord_jobs", "perspectord_streams",
		"perspectord_queue_wait_seconds", "perspectord_uptime_seconds",
	} {
		fam := strings.TrimSuffix(name, "_bucket")
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
}

// splitPromLabels splits a rendered label block on commas that sit
// outside quoted values.
func splitPromLabels(labels string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			if i > 0 && labels[i-1] == '\\' {
				continue
			}
			depth = !depth
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	if start < len(labels) {
		out = append(out, labels[start:])
	}
	return out
}

// TestMetricsHostileLabelValues drives a label value containing every
// character class the escaper must handle through the real quota-
// rejection path and requires the exposition to stay parseable with the
// hostile tenant name intact.
func TestMetricsHostileLabelValues(t *testing.T) {
	env := newEnv(t, stubRunner{}.run, jobs.Options{Workers: 1}, func(cfg *server.Config) {
		cfg.Quota = fleet.NewTenantLimiter(0.001, 1)
	})
	hostile := `ten"ant\x` + "\twith\ttabs"
	submit := func() int {
		body, err := json.Marshal(scoreBody(3))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", env.ts.URL+"/api/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", hostile)
		resp, err := env.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Burn the quota, then force a 429 so the hostile tenant label lands
	// in the rejection counter.
	got429 := false
	for i := 0; i < 5; i++ {
		if submit() == http.StatusTooManyRequests {
			got429 = true
			break
		}
	}
	if !got429 {
		t.Fatal("quota never rejected; hostile label not exercised")
	}

	_, body := env.do(t, "GET", "/metrics", nil)
	series, _ := parseProm(t, string(body))
	found := false
	for labels := range series["perspectord_quota_rejections_total"] {
		if strings.Contains(labels, `ten\"ant\\x`) && strings.Contains(labels, "\twith\ttabs") {
			found = true
		}
	}
	if !found {
		t.Fatalf("hostile tenant label not round-tripped: %v", series["perspectord_quota_rejections_total"])
	}
}
