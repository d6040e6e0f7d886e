package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Inputs are dirty strings over a seeded pseudo-word vocabulary: each row
// is a base word in one of four forms (clean, plural, typo, or two-word),
// the kinds of variation a similarity join is meant to see through. The
// server receives only the CSV and SQL built from them.

const (
	scanRows      = 2048 // rows in each of the join-scan tables L and R
	scanVocab     = 1400 // base words behind L and R (about 3k distinct strings)
	catalogRows   = 512  // resident catalog of fresh-match
	matchRows     = 1024 // rows in one fresh-match probe batch
	matchNovel    = 768  // of which never seen before in the run
	matchRecent   = 4    // repeated rows come from the last this-many batches
	syllablesMin  = 2
	syllablesMax  = 4
	matchTopK     = 3
	scanTopK      = 5
	scanThreshold = 0.9
	selThreshold  = 0.8
)

var (
	onsets = []string{"b", "br", "c", "ch", "d", "f", "g", "gr", "k", "l", "m", "n", "p", "pl", "r", "s", "st", "t", "tr", "v", "z"}
	nuclei = []string{"a", "e", "i", "o", "u", "ai", "ou", "ea"}
	codas  = []string{"", "", "", "n", "r", "s", "l", "k", "m"}
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// pseudoWord builds one pronounceable nonsense word.
func pseudoWord(r *rand.Rand) string {
	var b strings.Builder
	n := syllablesMin + r.IntN(syllablesMax-syllablesMin+1)
	for i := 0; i < n; i++ {
		b.WriteString(onsets[r.IntN(len(onsets))])
		b.WriteString(nuclei[r.IntN(len(nuclei))])
		if i == n-1 {
			b.WriteString(codas[r.IntN(len(codas))])
		}
	}
	return b.String()
}

// vocabulary draws n distinct pseudo-words.
func vocabulary(r *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		w := pseudoWord(r)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// typo applies one edit: a substitution, a deletion, or a transposition.
func typo(r *rand.Rand, w string) string {
	b := []byte(w)
	if len(b) < 3 {
		return w + "e"
	}
	i := 1 + r.IntN(len(b)-2)
	switch r.IntN(3) {
	case 0:
		b[i] = byte('a' + r.IntN(26))
	case 1:
		b = append(b[:i], b[i+1:]...)
	default:
		b[i], b[i+1] = b[i+1], b[i]
	}
	return string(b)
}

// dirty renders base in one of the four forms.
func dirty(r *rand.Rand, base string, vocab []string) string {
	switch p := r.IntN(10); {
	case p < 4:
		return base
	case p < 6:
		if strings.HasSuffix(base, "s") {
			return base + "es"
		}
		return base + "s"
	case p < 8:
		return typo(r, base)
	default:
		return base + " " + vocab[r.IntN(len(vocab))]
	}
}

// scanInputs are the join-scan tables: L names and R titles.
type scanInputs struct {
	Left, Right []string
}

func genScan(seed uint64) scanInputs {
	r := newRand(seed, 1)
	vocab := vocabulary(r, scanVocab)
	side := func() []string {
		out := make([]string, scanRows)
		for i := range out {
			out[i] = dirty(r, vocab[r.IntN(len(vocab))], vocab)
		}
		return out
	}
	left := side()
	return scanInputs{Left: left, Right: side()}
}

// matchStream is the fresh-match input: a resident catalog and an endless,
// deterministic sequence of probe batches. Batch i holds matchNovel strings
// never seen before in the stream and matchRows-matchNovel strings repeated
// from batches i-matchRecent..i-1 (batch 0 repeats from itself).
type matchStream struct {
	Catalog []string

	r       *rand.Rand
	vocab   []string
	seen    map[string]bool
	batches [][]string
}

func newMatchStream(seed uint64) *matchStream {
	r := newRand(seed, 2)
	vocab := vocabulary(r, catalogRows*2)
	catalog := make([]string, catalogRows)
	seen := make(map[string]bool)
	for i := range catalog {
		// Two-word entity names: a probe row is a dirty variant of one.
		for {
			s := vocab[r.IntN(len(vocab))] + " " + vocab[r.IntN(len(vocab))]
			if !seen[s] {
				seen[s] = true
				catalog[i] = s
				break
			}
		}
	}
	return &matchStream{Catalog: catalog, r: r, vocab: vocab, seen: seen}
}

// novel is a dirty variant of a catalog entry, new to the stream: the
// suffix word makes it an arriving record rather than a catalog copy.
func (m *matchStream) novel() string {
	for {
		base := m.Catalog[m.r.IntN(len(m.Catalog))]
		s := dirty(m.r, base, m.vocab) + " " + pseudoWord(m.r)
		if !m.seen[s] {
			m.seen[s] = true
			return s
		}
	}
}

// Batch returns probe batch i, generating batches in order as needed.
func (m *matchStream) Batch(i int) []string {
	for len(m.batches) <= i {
		n := len(m.batches)
		b := make([]string, 0, matchRows)
		for j := 0; j < matchNovel; j++ {
			b = append(b, m.novel())
		}
		lo := n - matchRecent
		if lo < 0 {
			lo = 0
		}
		for len(b) < matchRows {
			src := b[:matchNovel]
			if n > 0 {
				src = m.batches[lo+m.r.IntN(n-lo)]
			}
			b = append(b, src[m.r.IntN(len(src))])
		}
		m.r.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		m.batches = append(m.batches, b)
	}
	return m.batches[i]
}

// textCSV renders one text column under an int id column.
func textCSV(idCol, textCol string, texts []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%s\n", idCol, textCol)
	for i, s := range texts {
		fmt.Fprintf(&b, "%d,%s\n", i, s)
	}
	return b.String()
}
