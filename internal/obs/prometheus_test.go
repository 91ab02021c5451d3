package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"xring/internal/obs"
)

var (
	promCounter = obs.NewCounter("promtest.requests")
	promGauge   = obs.NewGauge("promtest.queue.depth")
	promHist    = obs.NewHistogram("promtest.duration_ms", "ms", []float64{1, 10, 100})
)

// TestWritePrometheus pins the exposition encoding: name mangling,
// counter _total suffix, gauge value + high-water series, cumulative
// histogram buckets ending at +Inf — and the whole output passing the
// strict validator.
func TestWritePrometheus(t *testing.T) {
	withTelemetry(t, false, true)
	promCounter.Add(3)
	promGauge.Set(5)
	promGauge.Set(2)
	for _, v := range []float64{0.5, 5, 50, 500} {
		promHist.Observe(v)
	}

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE xring_promtest_requests_total counter",
		"xring_promtest_requests_total 3",
		"# TYPE xring_promtest_queue_depth gauge",
		"xring_promtest_queue_depth 2",
		"xring_promtest_queue_depth_max 5",
		"# TYPE xring_promtest_duration_ms histogram",
		`xring_promtest_duration_ms_bucket{le="1"} 1`,
		`xring_promtest_duration_ms_bucket{le="10"} 2`,
		`xring_promtest_duration_ms_bucket{le="100"} 3`,
		`xring_promtest_duration_ms_bucket{le="+Inf"} 4`,
		"xring_promtest_duration_ms_sum 555.5",
		"xring_promtest_duration_ms_count 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("own exposition fails strict validation: %v\n%s", err, out)
	}

	// Deterministic: a second render of the same state is identical.
	var buf2 bytes.Buffer
	if err := obs.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same registry state differ")
	}
}

// TestValidateExpositionRejectsMalformed: the strict parser actually
// rejects the failure shapes it claims to catch.
func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no families":      "",
		"sample sans TYPE": "xring_orphan 1\n",
		"bad name":         "# TYPE 9bad counter\n9bad 1\n",
		"bad value":        "# TYPE xring_c counter\nxring_c banana\n",
		"bad type":         "# TYPE xring_c countr\nxring_c 1\n",
		"dup type":         "# TYPE xring_c counter\n# TYPE xring_c counter\nxring_c 1\n",
		"non-cumulative": "# TYPE xring_h histogram\n" +
			"xring_h_bucket{le=\"1\"} 5\nxring_h_bucket{le=\"+Inf\"} 3\n" +
			"xring_h_sum 1\nxring_h_count 3\n",
		"no inf bucket": "# TYPE xring_h histogram\n" +
			"xring_h_bucket{le=\"1\"} 1\nxring_h_sum 1\nxring_h_count 1\n",
		"inf != count": "# TYPE xring_h histogram\n" +
			"xring_h_bucket{le=\"+Inf\"} 2\nxring_h_sum 1\nxring_h_count 3\n",
		"unquoted label": "# TYPE xring_h histogram\n" +
			"xring_h_bucket{le=1} 1\nxring_h_bucket{le=\"+Inf\"} 1\n" +
			"xring_h_sum 1\nxring_h_count 1\n",
	}
	for name, text := range cases {
		if err := obs.ValidateExposition([]byte(text)); err == nil {
			t.Errorf("%s: validator accepted\n%s", name, text)
		}
	}
	ok := "# HELP xring_c a counter\n# TYPE xring_c counter\nxring_c{shard=\"a b\"} 1\n" +
		"# TYPE xring_h histogram\n" +
		"xring_h_bucket{le=\"0.5\"} 1\nxring_h_bucket{le=\"+Inf\"} 2\n" +
		"xring_h_sum 1.5\nxring_h_count 2\n"
	if err := obs.ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("validator rejected well-formed exposition: %v", err)
	}
}
