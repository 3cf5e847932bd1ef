package kanon

import (
	"fmt"
	"strconv"
	"strings"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
)

// Constraint is a privacy constraint on the sensitive attribute, enforced
// on top of the anonymity notion: for NotionK every equivalence class of
// the release, and for NotionKK every record's candidate set, must satisfy
// it. Construct constraints with DistinctDiversity, EntropyDiversity,
// RecursiveDiversity and Closeness (or parse CLI specs with
// ParseConstraints) and set Options.Constraints. The interface is sealed —
// the engine-level evaluation contract lives in internal/cluster.
type Constraint interface {
	// String names the constraint with its parameters (e.g. "distinct=3"),
	// for reports, error messages and the -constraint CLI flag syntax.
	String() string

	// validate checks the parameters without a table, for Options.Validate.
	validate() error
	// build binds the constraint to a table's sensitive attribute,
	// producing the engine-level constraint.
	build(t *Table) (cluster.Constraint, error)
}

// DistinctDiversity returns distinct ℓ-diversity: at least l distinct
// sensitive values per equivalence class (Machanavajjhala et al.).
func DistinctDiversity(l int) Constraint { return distinctC{l} }

// EntropyDiversity returns entropy ℓ-diversity: the Shannon entropy of
// each class's sensitive distribution must be at least log l. l may be
// fractional.
func EntropyDiversity(l float64) Constraint { return entropyC{l} }

// RecursiveDiversity returns recursive (c,ℓ)-diversity: with each class's
// sensitive-value counts sorted descending r₁ ≥ … ≥ r_m, require
// r₁ < c·(r_ℓ + … + r_m).
func RecursiveDiversity(c float64, l int) Constraint { return recursiveC{c, l} }

// Closeness returns t-closeness (Li, Li, Venkatasubramanian): the
// earth-mover's distance between each class's sensitive distribution and
// the whole table's must not exceed tc. The ground metric is chosen from
// the sensitive domain: when every sensitive value parses as a number the
// ordered 1-D ground (position gaps normalized by the range) applies,
// otherwise the equal ground (total variation).
func Closeness(tc float64) Constraint { return closenessC{tc} }

type distinctC struct{ l int }

func (c distinctC) String() string { return fmt.Sprintf("distinct=%d", c.l) }
func (c distinctC) validate() error {
	if c.l < 2 {
		return fmt.Errorf("distinct diversity needs l ≥ 2, got %d", c.l)
	}
	return nil
}
func (c distinctC) build(*Table) (cluster.Constraint, error) {
	return cluster.DistinctLDiversity(c.l), nil
}

type entropyC struct{ l float64 }

func (c entropyC) String() string { return fmt.Sprintf("entropy=%g", c.l) }
func (c entropyC) validate() error {
	if !(c.l > 1) {
		return fmt.Errorf("entropy diversity needs l > 1, got %g", c.l)
	}
	return nil
}
func (c entropyC) build(*Table) (cluster.Constraint, error) {
	return cluster.EntropyLDiversity(c.l), nil
}

type recursiveC struct {
	c float64
	l int
}

func (c recursiveC) String() string { return fmt.Sprintf("recursive=%g/%d", c.c, c.l) }
func (c recursiveC) validate() error {
	if !(c.c > 0) {
		return fmt.Errorf("recursive diversity needs c > 0, got %g", c.c)
	}
	if c.l < 2 {
		return fmt.Errorf("recursive diversity needs l ≥ 2, got %d", c.l)
	}
	return nil
}
func (c recursiveC) build(*Table) (cluster.Constraint, error) {
	return cluster.RecursiveCL(c.c, c.l), nil
}

type closenessC struct{ t float64 }

func (c closenessC) String() string { return fmt.Sprintf("tclose=%g", c.t) }
func (c closenessC) validate() error {
	if c.t < 0 || c.t > 1 {
		return fmt.Errorf("t-closeness needs t in [0,1], got %g", c.t)
	}
	return nil
}
func (c closenessC) build(t *Table) (cluster.Constraint, error) {
	// Ordered ground when the whole sensitive domain is numeric; equal
	// ground (total variation) otherwise.
	pos := make([]float64, len(t.sensitiveValues))
	numeric := len(pos) > 0
	for i, v := range t.sensitiveValues {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			numeric = false
			break
		}
		pos[i] = f
	}
	if numeric {
		return cluster.TClosenessOrdered(c.t, pos), nil
	}
	return cluster.TCloseness(c.t), nil
}

// ParseConstraints parses a comma-separated constraint specification, the
// syntax of the CLIs' -constraint flag:
//
//	distinct=3              distinct 3-diversity
//	entropy=2.5             entropy 2.5-diversity
//	recursive=3/2           recursive (3,2)-diversity
//	tclose=0.2              0.2-closeness
//
// e.g. "distinct=3,tclose=0.25". Parameters are validated (the same checks
// Options.Validate applies).
func ParseConstraints(spec string) ([]Constraint, error) {
	var out []Constraint
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, arg, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("kanon: constraint %q: want name=value (distinct=L, entropy=L, recursive=C/L, tclose=T)", part)
		}
		var c Constraint
		switch name {
		case "distinct":
			l, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
			}
			c = DistinctDiversity(l)
		case "entropy":
			l, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
			}
			c = EntropyDiversity(l)
		case "recursive":
			cs, ls, ok := strings.Cut(arg, "/")
			if !ok {
				return nil, fmt.Errorf("kanon: constraint %q: want recursive=C/L", part)
			}
			cv, err := strconv.ParseFloat(cs, 64)
			if err != nil {
				return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
			}
			lv, err := strconv.Atoi(ls)
			if err != nil {
				return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
			}
			c = RecursiveDiversity(cv, lv)
		case "tclose":
			tv, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
			}
			c = Closeness(tv)
		default:
			return nil, fmt.Errorf("kanon: unknown constraint %q (want distinct, entropy, recursive or tclose)", name)
		}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("kanon: constraint %q: %v", part, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// buildConstraints binds the facade constraints to the table, yielding the
// engine-level constraint list.
func buildConstraints(t *Table, cons []Constraint) ([]cluster.Constraint, error) {
	if len(cons) == 0 {
		return nil, nil
	}
	out := make([]cluster.Constraint, len(cons))
	for i, c := range cons {
		cc, err := c.build(t)
		if err != nil {
			return nil, err
		}
		out[i] = cc
	}
	return out, nil
}

// ConstraintStatus audits one constraint against a release's equivalence
// classes.
type ConstraintStatus = anonymity.ConstraintStatus

// ConstraintReport audits the release's equivalence classes against the
// run's constraints, returning one status per constraint in option order.
// Classes are the groups of identical generalized records, in
// first-appearance order.
//
// For NotionK the engine enforces constraints per equivalence class, so
// every status reports Satisfied (leftover absorption under a
// non-monotone constraint is best-effort — a violation there is surfaced
// here rather than hidden). For NotionKK the binding guarantee is on
// per-record candidate sets, a weaker surface than equivalence classes;
// this report is the stricter class-level audit and may count violations
// even though every candidate set satisfies the constraint.
func (r *Result) ConstraintReport() ([]ConstraintStatus, error) {
	cons := r.opt.Constraints
	if len(cons) == 0 {
		return nil, nil
	}
	if r.table.sensitive == nil {
		return nil, fmt.Errorf("kanon: table has no sensitive attribute")
	}
	built, err := buildConstraints(r.table, cons)
	if err != nil {
		return nil, err
	}
	out := make([]ConstraintStatus, len(built))
	for i, cc := range built {
		if out[i], err = anonymity.AuditClasses(r.gen, cc, r.table.sensitive); err != nil {
			return nil, err
		}
	}
	return out, nil
}
