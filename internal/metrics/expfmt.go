package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
// comments per family, then one sample line per cell, histograms
// expanded into cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Everything here runs on the scraping goroutine; the metric
// cells are atomics, so a scrape concurrent with the hot path reads a
// consistent-enough snapshot without stopping it.

// WritePrometheus renders every registered family in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Exposition renders WritePrometheus into a string (test and log use).
func (r *Registry) Exposition() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func (f *family) write(bw *bufio.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	labels := make([]string, 0, len(f.cells))
	for l := range f.cells {
		labels = append(labels, l)
	}
	if len(labels) == 0 {
		return nil // registered but never materialized a cell: nothing to expose
	}
	sort.Strings(labels)
	fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
	for _, l := range labels {
		pair := ""
		if f.labelKey != "" {
			pair = fmt.Sprintf(`%s="%s"`, f.labelKey, escapeLabel(l))
		}
		switch c := f.cells[l].(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(pair), c.Value())
		case *Gauge:
			fmt.Fprintf(bw, "%s%s %d\n", f.name, braced(pair), c.Value())
		case *Histogram:
			cum := uint64(0)
			for i, b := range c.bounds {
				cum += c.cells[i].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, braced(join(pair, `le="`+strconv.FormatInt(b, 10)+`"`)), cum)
			}
			cum += c.cells[len(c.bounds)].Load()
			fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, braced(join(pair, `le="+Inf"`)), cum)
			fmt.Fprintf(bw, "%s_sum%s %d\n", f.name, braced(pair), c.Sum())
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, braced(pair), c.Count())
		}
	}
	return nil
}

func braced(pairs string) string {
	if pairs == "" {
		return ""
	}
	return "{" + pairs + "}"
}

func join(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// Exposition is a parsed scrape: sample values keyed by the full series
// name (metric name plus its rendered label set), and the declared TYPE
// per family. The chaos harness uses it to assert a scrape stays
// parseable and counters stay monotone while faults fire.
type ParsedExposition struct {
	Types   map[string]string  // family name -> counter|gauge|histogram
	Samples map[string]float64 // "name{label=...}" -> value
	order   []string
}

// familyOf maps a sample key back to its TYPE-declaring family,
// unwrapping the histogram _bucket/_sum/_count suffixes.
func (e *ParsedExposition) familyOf(key string) (string, string) {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if t, ok := e.Types[name]; ok {
		return name, t
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, ok := e.Types[base]; ok && t == "histogram" {
				return base, t
			}
		}
	}
	return name, ""
}

// ParseExposition parses Prometheus text format strictly enough to act
// as a wire-format gate: every non-comment line must be
// `name[{labels}] value` with a parseable float value, and every sample
// must belong to a family that declared a TYPE.
func ParseExposition(data string) (*ParsedExposition, error) {
	e := &ParsedExposition{Types: make(map[string]string), Samples: make(map[string]float64)}
	for ln, line := range strings.Split(data, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("metrics: line %d: malformed comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("metrics: line %d: malformed TYPE %q", ln+1, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram":
					e.Types[fields[2]] = fields[3]
				default:
					return nil, fmt.Errorf("metrics: line %d: unknown type %q", ln+1, fields[3])
				}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics: line %d: no value in %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if i := strings.IndexByte(key, '{'); i >= 0 && !strings.HasSuffix(key, "}") {
			return nil, fmt.Errorf("metrics: line %d: unterminated label set in %q", ln+1, key)
		}
		if _, typ := e.familyOf(key); typ == "" {
			return nil, fmt.Errorf("metrics: line %d: sample %q has no TYPE declaration", ln+1, key)
		}
		if _, dup := e.Samples[key]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %q", ln+1, key)
		}
		e.Samples[key] = v
		e.order = append(e.order, key)
	}
	return e, nil
}

// MonotoneViolations compares this scrape against an earlier one and
// reports every counter-family series (histogram buckets and counts
// included — their values are cumulative too) that decreased. A nil or
// empty prev reports nothing.
func (e *ParsedExposition) MonotoneViolations(prev *ParsedExposition) []string {
	if prev == nil {
		return nil
	}
	var out []string
	for _, key := range e.order {
		_, typ := e.familyOf(key)
		monotone := typ == "counter" || (typ == "histogram" && !strings.Contains(keyName(key), "_sum"))
		if !monotone {
			continue
		}
		if before, ok := prev.Samples[key]; ok && e.Samples[key] < before {
			out = append(out, fmt.Sprintf("%s decreased %v -> %v", key, before, e.Samples[key]))
		}
	}
	return out
}

func keyName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
