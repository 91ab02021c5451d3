package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenSection is one table block of tables.golden: the table it
// belongs to ("TABLE II", "ABLATION"), the line naming the block above
// its header ("16-node", "The setting for min. power for 16-node"), the
// header fields and the rows' fields.
type goldenSection struct {
	table, title string
	header       []string
	rows         [][]string
}

// metricColumns are the value columns of the tables, by columnKey;
// every other column is a label.
var metricColumns = map[string]bool{"#wl": true, "il_w": true, "il_w*": true, "L": true, "C": true,
	"C(total)": true, "P": true, "#s": true, "SNR_w": true, "noise-free": true}

// columnKey names a column the same way in both files: no spaces and no
// unit suffix, so "il_w (dB)" and "il_w", "P" and "P(mW)" agree.
func columnKey(h string) string {
	h = strings.ReplaceAll(h, " ", "")
	for _, unit := range []string{"(dB)", "(mm)", "(mW)"} {
		h = strings.TrimSuffix(h, unit)
	}
	return h
}

// parseGolden splits tables.golden into its table blocks. A header line
// holds the #wl and il_w columns; its rows follow after one blank line
// up to the next blank line.
func parseGolden(text string) []goldenSection {
	var out []goldenSection
	var table, title string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		f := strings.Fields(lines[i])
		switch {
		case len(f) == 0:
		case strings.HasPrefix(lines[i], "TABLE ") || strings.HasPrefix(lines[i], "ABLATION"):
			table, title = strings.Join(f[:min(2, len(f))], " "), ""
			if f[0] == "ABLATION" {
				table = "ABLATION"
			}
		case strings.Contains(lines[i], "#wl") && strings.Contains(lines[i], "il_w") && f[0] != "ABLATION":
			sec := goldenSection{table: table, title: title, header: f}
			for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
				sec.rows = append(sec.rows, strings.Fields(lines[i]))
			}
			out = append(out, sec)
		default:
			title = lines[i]
		}
	}
	return out
}

// mdTable is one of EXPERIMENTS.md's "Ours" tables: the golden table it
// reports, the node count its caption names ("16-node", or ""), its
// header cells and its rows' cells.
type mdTable struct {
	table, nodes string
	header       []string
	rows         [][]string
}

func cells(line string) []string {
	c := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i := range c {
		c[i] = strings.TrimSpace(c[i])
	}
	return c
}

// parseOurs returns every table EXPERIMENTS.md captions "Ours", plus the
// ablation table, which reports this repository's numbers only.
func parseOurs(text string) []mdTable {
	var out []mdTable
	var table, caption string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case strings.HasPrefix(line, "## "):
			f := strings.Fields(line)
			table, caption = "", ""
			if len(f) > 2 && f[1] == "Table" {
				table = "TABLE " + f[2]
			} else if len(f) > 1 && f[1] == "Ablations" {
				table, caption = "ABLATION", "Ours"
			}
		case strings.HasPrefix(line, "|"):
			t := mdTable{table: table, header: cells(line)}
			for i += 2; i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "|"); i++ {
				t.rows = append(t.rows, cells(lines[i]))
			}
			if table != "" && strings.HasPrefix(caption, "Ours") {
				if open := strings.Index(caption, "("); open >= 0 {
					t.nodes = strings.TrimSuffix(caption[open+1:], "):")
				}
				out = append(out, t)
			}
			caption = ""
		case line != "":
			caption = line
		}
	}
	return out
}

// commonWords counts the leading words two labels share.
func commonWords(a, b string) int {
	fa, fb := strings.Fields(a), strings.Fields(b)
	n := 0
	for n < len(fa) && n < len(fb) && fa[n] == fb[n] {
		n++
	}
	return n
}

// cellMatches reports whether a printed EXPERIMENTS.md cell ("2.5 mW",
// "100 %", "9.10", "-") agrees with the golden value at the cell's own
// precision: within half a unit of its last printed digit.
func cellMatches(cell, golden string) bool {
	if cell == "-" || golden == "-" {
		return cell == golden
	}
	num := strings.TrimSpace(strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "mW"))
	md, err1 := strconv.ParseFloat(num, 64)
	g, err2 := strconv.ParseFloat(strings.TrimSuffix(golden, "%"), 64)
	if err1 != nil || err2 != nil {
		return false
	}
	digits := 0
	if dot := strings.IndexByte(num, '.'); dot >= 0 {
		digits = len(num) - dot - 1
	}
	return math.Abs(md-g) <= 0.5*math.Pow(10, -float64(digits))+1e-9
}

// TestExperimentsMatchGolden keeps EXPERIMENTS.md from drifting: every
// value cell of every "Ours" table (and of the ablation table) must
// agree with testdata/tables.golden, the checked output of
// xbench -table all, at the precision the cell is printed with. A row
// finds its golden block by table, the caption's node count and the
// setting column, and its golden row by the longest shared leading
// words of its label.
func TestExperimentsMatchGolden(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	sections := parseGolden(string(golden))
	tables := parseOurs(string(md))
	if len(tables) < 4 {
		t.Fatalf("found %d Ours tables in EXPERIMENTS.md, want Tables I-III and the ablation", len(tables))
	}
	compared := 0
	for _, tb := range tables {
		for _, row := range tb.rows {
			setting, label := "", ""
			for c, h := range tb.header {
				switch {
				case h == "setting":
					setting = row[c]
				case !metricColumns[columnKey(h)] && label == "":
					label = row[c]
				}
			}
			var sec *goldenSection
			for i := range sections {
				s := &sections[i]
				if s.table != tb.table || !strings.Contains(s.title, tb.nodes) ||
					setting != "" && !strings.Contains(s.title, strings.Fields(setting)[0]+".") {
					continue
				}
				if sec != nil {
					t.Fatalf("%s %s %q: more than one golden block", tb.table, tb.nodes, setting)
				}
				sec = s
			}
			if sec == nil {
				t.Fatalf("%s %s %q: no golden block", tb.table, tb.nodes, setting)
			}
			values := 0
			for _, h := range sec.header {
				if metricColumns[columnKey(h)] {
					values++
				}
			}
			var grow []string
			best, ties := 0, 0
			for _, r := range sec.rows {
				switch n := commonWords(label, strings.Join(r[:len(r)-values], " ")); {
				case n > best:
					best, ties, grow = n, 1, r
				case n == best && n > 0:
					ties++
				}
			}
			if best == 0 || ties > 1 {
				t.Fatalf("%s %q: row %q matches %d golden rows", tb.table, setting, label, ties)
			}
			gvals := grow[len(grow)-values:]
			gcols := sec.header[len(sec.header)-values:]
			for c, h := range tb.header {
				if !metricColumns[columnKey(h)] {
					continue
				}
				k := -1
				for j, gh := range gcols {
					if columnKey(gh) == columnKey(h) {
						k = j
					}
				}
				if k < 0 {
					t.Fatalf("%s: column %q has no golden column", tb.table, h)
				}
				if !cellMatches(row[c], gvals[k]) {
					t.Errorf("%s %q %q column %s: EXPERIMENTS.md says %q, tables.golden %q",
						tb.table, setting, label, h, row[c], gvals[k])
				}
				compared++
			}
		}
	}
	if compared < 100 {
		t.Fatalf("compared %d cells, want every value cell of the Ours tables (over 100)", compared)
	}
}
