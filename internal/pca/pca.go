// Package pca implements principal component analysis on top of the
// linalg eigensolver. It corresponds to Algorithm 1 ("Measuring Variance of
// Dimensions", VarPCA) of the VAQ paper: eigendecompose the second-moment
// matrix XᵀX, sort eigenpairs by descending eigenvalue, and expose the
// normalized eigenvalue energy as the per-dimension importance measure
// (paper Equation 6).
package pca

import (
	"errors"
	"fmt"
	"math"

	"vaq/internal/linalg"
	"vaq/internal/vec"
)

// Model is a fitted PCA: an orthonormal basis sorted by descending
// explained variance, plus the variance profile itself.
type Model struct {
	// Dim is the input dimensionality d.
	Dim int
	// Eigenvalues are sorted descending; negative values (possible only
	// through rounding) are clamped to zero.
	Eigenvalues []float64
	// Components is the d x d matrix whose COLUMNS are the eigenvectors,
	// ordered to match Eigenvalues. Projecting data is X * Components.
	Components *linalg.Dense
	// Centered records whether the model subtracted column means.
	Mean []float64 // nil when not centered
}

// Options configures Fit.
type Options struct {
	// Center subtracts per-column means before computing the covariance.
	// The paper operates on z-normalized series and uses the raw
	// second-moment matrix XᵀX (Algorithm 1), so the default is false.
	Center bool
	// Method selects the eigensolver (default EigAuto).
	Method linalg.EigMethod
}

// Fit computes a PCA model of x.
func Fit(x *vec.Matrix, opt Options) (*Model, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("pca: empty input")
	}
	cov := linalg.Covariance(x, opt.Center)
	eig, err := linalg.SymEig(cov, opt.Method)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	vals := make([]float64, len(eig.Values))
	for i, v := range eig.Values {
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	m := &Model{Dim: x.Cols, Eigenvalues: vals, Components: eig.Vectors}
	if opt.Center {
		m.Mean = vec.ColumnMeans(x)
	}
	return m, nil
}

// ExplainedVarianceRatio returns the normalized eigenvalue energy
// |λi| / Σj |λj| (paper Equation 6). The result sums to 1 unless all
// eigenvalues are zero, in which case a uniform profile is returned so that
// downstream bit allocation remains well defined.
func (m *Model) ExplainedVarianceRatio() []float64 {
	out := make([]float64, len(m.Eigenvalues))
	var total float64
	for _, v := range m.Eigenvalues {
		total += math.Abs(v)
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, v := range m.Eigenvalues {
		out[i] = math.Abs(v) / total
	}
	return out
}

// Project maps x (n x d) onto the PCA basis, producing the principal
// component scores Z = X * V (n x d). If the model was centered, the mean
// is subtracted first.
//
// Each score is the sum over k ascending of x[k]*V[k][j]. It is
// accumulated by walking V's rows contiguously — row k adds its term to
// every score — rather than reading V column-wise with stride d; each
// score still sums its terms in the same order, so the result is
// bit-identical to the column-wise dot products.
func (m *Model) Project(x *vec.Matrix) (*vec.Matrix, error) {
	if x.Cols != m.Dim {
		return nil, fmt.Errorf("pca: project dimension %d, model has %d", x.Cols, m.Dim)
	}
	d := m.Dim
	out := vec.NewMatrix(x.Rows, d)
	buf := make([]float64, 2*d)
	row, acc := buf[:d], buf[d:]
	comp := m.Components.Data
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = float64(src[j])
			if m.Mean != nil {
				row[j] -= m.Mean[j]
			}
		}
		clear(acc)
		for k, xk := range row {
			for j, v := range comp[k*d : k*d+d] {
				acc[j] += xk * v
			}
		}
		dst := out.Row(i)
		for j, s := range acc {
			dst[j] = float32(s)
		}
	}
	return out, nil
}

// ProjectVec maps a single vector onto the PCA basis.
func (m *Model) ProjectVec(x []float32) ([]float32, error) {
	tmp := &vec.Matrix{Rows: 1, Cols: len(x), Data: x}
	out, err := m.Project(tmp)
	if err != nil {
		return nil, err
	}
	return out.Row(0), nil
}

// PermuteComponents reorders the eigenpairs according to perm: the new j-th
// component is the old perm[j]-th. Used by VAQ's partial balancing step and
// by OPQ's eigenvalue-allocation permutation.
func (m *Model) PermuteComponents(perm []int) error {
	if len(perm) != m.Dim {
		return fmt.Errorf("pca: permutation length %d != dim %d", len(perm), m.Dim)
	}
	seen := make([]bool, m.Dim)
	for _, p := range perm {
		if p < 0 || p >= m.Dim || seen[p] {
			return fmt.Errorf("pca: invalid permutation entry %d", p)
		}
		seen[p] = true
	}
	vals := make([]float64, m.Dim)
	comp := linalg.NewDense(m.Dim, m.Dim)
	for j, p := range perm {
		vals[j] = m.Eigenvalues[p]
		for i := 0; i < m.Dim; i++ {
			comp.Set(i, j, m.Components.At(i, p))
		}
	}
	m.Eigenvalues = vals
	m.Components = comp
	return nil
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		Dim:         m.Dim,
		Eigenvalues: append([]float64(nil), m.Eigenvalues...),
		Components:  m.Components.Clone(),
	}
	if m.Mean != nil {
		c.Mean = append([]float64(nil), m.Mean...)
	}
	return c
}
