package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct{ Name, Value string }

// PromWriter emits Prometheus text exposition format 0.0.4. Errors are
// sticky: the first write error is retained and subsequent calls are
// no-ops, so a handler can emit the whole page and check Err once.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// Header emits the # HELP and # TYPE lines for a metric. typ is one of
// counter, gauge, histogram, summary, untyped.
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Metric emits one sample line: name{labels} value.
func (p *PromWriter) Metric(name string, labels []Label, value float64) {
	p.printf("%s%s %s\n", name, formatLabels(labels), formatValue(value))
}

// Histogram emits a histogram's cumulative _bucket series (including the
// mandatory le="+Inf" bucket), _sum, and _count from a snapshot. labels
// must not contain "le".
func (p *PromWriter) Histogram(name string, labels []Label, s HistSnapshot) {
	var cum uint64
	le := append(append(make([]Label, 0, len(labels)+1), labels...), Label{})
	for i, c := range s.Counts {
		cum += c
		bound := math.Inf(1)
		if i < len(s.Bounds) {
			bound = s.Bounds[i]
		}
		le[len(le)-1] = Label{"le", formatValue(bound)}
		p.printf("%s_bucket%s %d\n", name, formatLabels(le), cum)
	}
	p.printf("%s_sum%s %s\n", name, formatLabels(labels), formatValue(s.Sum))
	p.printf("%s_count%s %d\n", name, formatLabels(labels), s.Count)
}

// Flush drains the buffer and returns the first error seen.
func (p *PromWriter) Flush() error {
	if p.err == nil {
		p.err = p.w.Flush()
	}
	return p.err
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ValidatePromText strictly parses a text exposition (format 0.0.4):
// every line must be blank, a well-formed # HELP / # TYPE comment, or a
// sample whose metric name, label syntax, and value parse — and every
// sample must belong to a metric family with a preceding # TYPE. It
// returns the number of sample lines. The prom golden test and the
// snnserve selftest both run scrapes through this, so an exposition bug
// fails CI rather than a fleet's scraper.
func ValidatePromText(r io.Reader) (samples int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	typed := map[string]string{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.TrimSpace(text) == "":
		case strings.HasPrefix(text, "#"):
			if err := validateComment(text, typed); err != nil {
				return samples, fmt.Errorf("line %d: %w", line, err)
			}
		default:
			if err := validateSample(text, typed); err != nil {
				return samples, fmt.Errorf("line %d: %w", line, err)
			}
			samples++
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	return samples, nil
}

func validateComment(text string, typed map[string]string) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", text)
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", text)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := typed[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %q", fields[2])
		}
		typed[fields[2]] = fields[3]
	default:
		return fmt.Errorf("unknown comment keyword %q", fields[1])
	}
	return nil
}

func validateSample(text string, typed map[string]string) error {
	rest := text
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("sample %q has no metric name", text)
	}
	name := rest[:i]
	rest = rest[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := validateLabels(rest)
		if err != nil {
			return fmt.Errorf("sample %q: %w", text, err)
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("sample %q: want value [timestamp], got %q", text, rest)
	}
	if v := fields[0]; v != "+Inf" && v != "-Inf" && v != "NaN" {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("sample %q: bad value %q", text, v)
		}
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: bad timestamp %q", text, fields[1])
		}
	}
	if _, ok := typed[familyOf(name, typed)]; !ok {
		return fmt.Errorf("sample %q has no preceding # TYPE", text)
	}
	return nil
}

// familyOf maps a sample name to its typed family: itself, or the base
// of a _bucket/_sum/_count/_total series when only the base has a # TYPE.
func familyOf[T any](name string, typed map[string]T) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count", "_total"} {
		if base := strings.TrimSuffix(name, suffix); base != name {
			if _, ok := typed[base]; ok {
				return base
			}
		}
	}
	return name
}

var sampleLabelName = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// PromFamilies reduces an exposition that passes ValidatePromText to the
// shape dashboards depend on: one "name type label,names" line per
// family in page order (label names in first-seen order, le left out).
// The golden tests of both pages compare it.
func PromFamilies(text string) []string {
	type family struct {
		head   string
		labels []string
	}
	var order []*family
	typed := map[string]*family{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typed[f[2]] = &family{head: f[2] + " " + f[3]}
			order = append(order, typed[f[2]])
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		fam := typed[familyOf(line[:strings.IndexAny(line, "{ ")], typed)]
		open, end := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if fam == nil || open < 0 {
			continue
		}
		for _, m := range sampleLabelName.FindAllStringSubmatch(line[open:end+1], -1) {
			if m[1] != "le" && !slices.Contains(fam.labels, m[1]) {
				fam.labels = append(fam.labels, m[1])
			}
		}
	}
	out := make([]string, len(order))
	for i, f := range order {
		out[i] = strings.TrimSpace(f.head + " " + strings.Join(f.labels, ","))
	}
	return out
}

// validateLabels parses a {name="value",...} block starting at s[0]=='{'
// and returns the index just past the closing brace.
func validateLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && isLabelChar(s[i], i == start) {
			i++
		}
		if i == start {
			return 0, fmt.Errorf("empty label name at %q", s[i:])
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("label missing '=' at %q", s[start:])
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value missing opening quote at %q", s[start:])
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				if i >= len(s) {
					return 0, fmt.Errorf("dangling escape in label value")
				}
				switch s[i] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("bad escape \\%c in label value", s[i])
				}
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
	if first {
		return letter
	}
	return letter || c >= '0' && c <= '9'
}

func isLabelChar(c byte, first bool) bool {
	letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
	if first {
		return letter
	}
	return letter || c >= '0' && c <= '9'
}
