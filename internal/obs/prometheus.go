package obs

// Prometheus text exposition (format version 0.0.4) rendered from the
// metrics registry, so GET /metrics on the daemon is scrapeable by any
// standard collector. The JSON snapshot (WriteMetrics) remains the
// file-dump format; the HTTP layer negotiates between the two.
//
// Name mangling, documented in OBSERVABILITY.md:
//
//   - every registry name is prefixed with "xring_" and characters
//     outside [a-zA-Z0-9_] become '_':
//     "service.job.duration_ms" -> "xring_service_job_duration_ms";
//   - counters additionally get the conventional "_total" suffix:
//     "service.requests" -> "xring_service_requests_total";
//   - gauges export two series: the current value under the mangled
//     name and the high-water mark under "<name>_max";
//   - histograms follow the standard cumulative encoding:
//     "<name>_bucket{le="..."}" (cumulative, ending at le="+Inf"),
//     "<name>_sum" and "<name>_count".
//
// Families are emitted in lexicographic name order, so the exposition
// is deterministic for a fixed registry state.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName mangles a registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("xring_"))
	b.WriteString("xring_")
	for _, c := range name {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float sample value. Prometheus accepts Go's
// shortest-repr scientific notation as well as +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one metric family ready to print: the TYPE header plus
// its sample lines.
type promFamily struct {
	name string // mangled family name
	typ  string // counter | gauge | histogram
	help string
	rows []string // fully formatted sample lines
}

// WritePrometheus renders the current registry snapshot in Prometheus
// text exposition format 0.0.4.
func WritePrometheus(w io.Writer) error {
	return WritePrometheusDump(w, SnapshotMetrics())
}

// WritePrometheusDump renders d in Prometheus text exposition format
// 0.0.4, for callers that add their own counters to a registry
// snapshot before serving it.
func WritePrometheusDump(w io.Writer, d MetricsDump) error {
	fams := make([]promFamily, 0, len(d.Counters)+2*len(d.Gauges)+len(d.Histograms))
	for name, v := range d.Counters {
		m := promName(name) + "_total"
		fams = append(fams, promFamily{
			name: m, typ: "counter",
			help: "registry counter " + name,
			rows: []string{m + " " + strconv.FormatInt(v, 10)},
		})
	}
	for name, g := range d.Gauges {
		m := promName(name)
		fams = append(fams,
			promFamily{
				name: m, typ: "gauge",
				help: "registry gauge " + name,
				rows: []string{m + " " + strconv.FormatInt(g.Value, 10)},
			},
			promFamily{
				name: m + "_max", typ: "gauge",
				help: "registry gauge " + name + " (high-water mark)",
				rows: []string{m + "_max " + strconv.FormatInt(g.Max, 10)},
			})
	}
	for name, h := range d.Histograms {
		m := promName(name)
		help := "registry histogram " + name
		if h.Unit != "" {
			help += " (unit: " + h.Unit + ")"
		}
		f := promFamily{name: m, typ: "histogram", help: help}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if bound, ok := b.LE.(float64); ok {
				le = promFloat(bound)
			}
			f.rows = append(f.rows, fmt.Sprintf("%s_bucket{le=%q} %d", m, le, cum))
		}
		f.rows = append(f.rows,
			m+"_sum "+promFloat(h.Sum),
			m+"_count "+strconv.FormatInt(h.Count, 10))
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, row := range f.rows {
			if _, err := io.WriteString(w, row+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateExposition strictly checks a Prometheus text exposition: line
// grammar (comments, TYPE/HELP headers, samples with optional labels),
// metric and label name charsets, parseable values, every sample
// declared by a preceding TYPE header, and histogram invariants
// (cumulative non-decreasing buckets, a final le="+Inf" bucket equal to
// _count). The CI observability job runs it against a live daemon's
// scrape output.
func ValidateExposition(data []byte) error {
	type histState struct {
		prev    int64
		infSeen bool
		inf     int64
		count   int64
		hasCnt  bool
	}
	types := map[string]string{}
	hists := map[string]*histState{}
	lines := strings.Split(string(data), "\n")
	for n, line := range lines {
		lineNo := n + 1
		if line == "" {
			if n != len(lines)-1 {
				return fmt.Errorf("line %d: empty line inside exposition", lineNo)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				return fmt.Errorf("line %d: malformed comment %q (want # TYPE/# HELP)", lineNo, line)
			}
			if !validPromName(fields[2]) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{}
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam, suffix := name, ""
		if _, ok := types[fam]; !ok {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, sfx) && types[strings.TrimSuffix(name, sfx)] == "histogram" {
					fam, suffix = strings.TrimSuffix(name, sfx), sfx
					break
				}
			}
		}
		if _, ok := types[fam]; !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if h, ok := hists[fam]; ok {
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket %q without le label", lineNo, name)
				}
				cum := int64(value)
				if cum < h.prev {
					return fmt.Errorf("line %d: bucket le=%q count %d below previous %d (not cumulative)",
						lineNo, le, cum, h.prev)
				}
				h.prev = cum
				if le == "+Inf" {
					h.infSeen, h.inf = true, cum
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: unparseable le %q", lineNo, le)
				}
			case "_count":
				h.count, h.hasCnt = int64(value), true
			case "_sum":
			default:
				return fmt.Errorf("line %d: bare sample %q for histogram family", lineNo, name)
			}
		}
	}
	for fam, h := range hists {
		if !h.infSeen {
			return fmt.Errorf("histogram %q has no le=\"+Inf\" bucket", fam)
		}
		if !h.hasCnt {
			return fmt.Errorf("histogram %q has no _count sample", fam)
		}
		if h.inf != h.count {
			return fmt.Errorf("histogram %q: +Inf bucket %d != count %d", fam, h.inf, h.count)
		}
	}
	if len(types) == 0 {
		return fmt.Errorf("exposition declares no metric families")
	}
	return nil
}

// parsePromSample splits `name{labels} value` into its parts.
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 || !validPromLabel(rest[:eq]) {
				return "", nil, 0, fmt.Errorf("bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if rest == "" {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '\\' {
					if rest == "" {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					val.WriteByte(rest[0])
					rest = rest[1:]
					continue
				}
				if c == '"' {
					break
				}
				val.WriteByte(c)
			}
			labels[key] = val.String()
		}
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 { // value [timestamp]
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return name, labels, v, nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if i > 0 {
			ok = ok || c >= '0' && c <= '9'
		}
		if !ok {
			return false
		}
	}
	return true
}

func validPromLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if i > 0 {
			ok = ok || c >= '0' && c <= '9'
		}
		if !ok {
			return false
		}
	}
	return true
}
