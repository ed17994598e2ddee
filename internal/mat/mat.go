// Package mat implements the dense matrix and vector operations Perspector
// needs: construction, slicing by rows/columns, multiplication, covariance,
// and a symmetric eigendecomposition (cyclic Jacobi) that underpins PCA.
//
// Matrices are row-major and sized at construction. The package favours
// explicitness over generality: only the operations used by the analysis
// pipeline are provided, and all of them validate their shape arguments.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized rows×cols matrix.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: New(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: FromRows row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d × %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mRow := m.data[i*m.cols : (i+1)*m.cols]
		outRow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mRow {
			if mik == 0 {
				continue
			}
			bRow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bRow {
				outRow[j] += mik * bkj
			}
		}
	}
	return out
}

// VStack returns the vertical concatenation of m on top of b.
// Column counts must match.
func (m *Matrix) VStack(b *Matrix) *Matrix {
	if m.cols != b.cols {
		panic(fmt.Sprintf("mat: VStack col mismatch %d vs %d", m.cols, b.cols))
	}
	out := New(m.rows+b.rows, m.cols)
	copy(out.data, m.data)
	copy(out.data[m.rows*m.cols:], b.data)
	return out
}

// SelectCols returns a new matrix with the given columns, in order.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := New(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		for k, j := range idx {
			out.data[i*out.cols+k] = m.At(i, j)
		}
	}
	return out
}

// ColMeans returns the per-column mean vector.
func (m *Matrix) ColMeans() []float64 {
	means := make([]float64, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// Covariance returns the sample covariance matrix of the columns of m
// (cols×cols), treating rows as observations. It uses the n−1 denominator.
// With fewer than two rows the result is all zeros.
func (m *Matrix) Covariance() *Matrix {
	cov := New(m.cols, m.cols)
	if m.rows < 2 {
		return cov
	}
	means := m.ColMeans()
	inv := 1 / float64(m.rows-1)
	centered := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			centered[j] = v - means[j]
		}
		for a := 0; a < m.cols; a++ {
			ca := centered[a]
			if ca == 0 {
				continue
			}
			covRow := cov.data[a*m.cols : (a+1)*m.cols]
			for b := a; b < m.cols; b++ {
				covRow[b] += ca * centered[b]
			}
		}
	}
	for a := 0; a < m.cols; a++ {
		for b := a; b < m.cols; b++ {
			v := cov.data[a*m.cols+b] * inv
			cov.data[a*m.cols+b] = v
			cov.data[b*m.cols+a] = v
		}
	}
	return cov
}

// Equal reports whether m and b have the same shape and elements within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Dist returns the Euclidean distance between two equal-length vectors.
func Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dist length mismatch %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
