//! Secret-shared relations.
//!
//! A [`SharedRelation`] is the MPC-resident counterpart of
//! [`conclave_engine::Relation`]: the schema stays public (as in the paper,
//! relation schemas and sizes are not hidden) while every cell is an
//! additively-shared 64-bit integer.

use crate::protocol::Protocol;
use crate::share::Shares;
use conclave_engine::{ColumnarRelation, Relation, Table};
use conclave_ir::schema::Schema;
use conclave_ir::types::{DataType, Value};

/// A relation whose cells are secret-shared.
#[derive(Debug, Clone)]
pub struct SharedRelation {
    /// Public schema (column names and types).
    pub schema: Schema,
    /// Secret-shared rows.
    pub rows: Vec<Vec<Shares>>,
}

impl SharedRelation {
    /// Secret-shares a cleartext relation into the MPC. Non-integer cells
    /// are rejected because the arithmetic backends operate on `Z_{2^64}`.
    pub fn from_relation(rel: &Relation, proto: &mut Protocol) -> Result<Self, String> {
        for col in &rel.schema.columns {
            if !col.dtype.mpc_compatible() {
                return Err(format!(
                    "column `{}` has type {} which cannot be secret-shared",
                    col.name, col.dtype
                ));
            }
        }
        let mut rows = Vec::with_capacity(rel.num_rows());
        for row in &rel.rows {
            let mut out = Vec::with_capacity(row.len());
            for v in row {
                let int = v
                    .as_int()
                    .ok_or_else(|| format!("cannot share non-integer value {v}"))?;
                out.push(proto.share_value(int));
            }
            rows.push(out);
        }
        Ok(SharedRelation {
            schema: rel.schema.clone(),
            rows,
        })
    }

    /// Secret-shares a columnar relation into the MPC, one whole column at a
    /// time: each column is extracted as a contiguous `i64` vector and handed
    /// to [`Protocol::share_column`] in a single bulk call, instead of
    /// walking boxed row values cell by cell.
    pub fn from_columnar(rel: &ColumnarRelation, proto: &mut Protocol) -> Result<Self, String> {
        for col in &rel.schema.columns {
            if !col.dtype.mpc_compatible() {
                return Err(format!(
                    "column `{}` has type {} which cannot be secret-shared",
                    col.name, col.dtype
                ));
            }
        }
        let n = rel.num_rows();
        let mut shared_columns: Vec<Vec<Shares>> = Vec::with_capacity(rel.num_cols());
        for (c, col) in rel.columns().iter().enumerate() {
            // Fast path: a null-free integer column shares its slice directly,
            // with no intermediate copy.
            let shared = if let Some(slice) = col.as_ints() {
                proto.share_column(slice)
            } else {
                let ints: Vec<i64> = (0..n)
                    .map(|i| {
                        let v = rel.value(i, c);
                        v.as_int()
                            .ok_or_else(|| format!("cannot share non-integer value {v}"))
                    })
                    .collect::<Result<_, _>>()?;
                proto.share_column(&ints)
            };
            shared_columns.push(shared);
        }
        // Transpose into the row-major share layout the oblivious operators
        // consume.
        let rows = (0..n)
            .map(|i| shared_columns.iter().map(|col| col[i].clone()).collect())
            .collect();
        Ok(SharedRelation {
            schema: rel.schema.clone(),
            rows,
        })
    }

    /// Secret-shares a [`Table`] into the MPC, picking the column-at-a-time
    /// sharing path whenever the table's columnar representation is already
    /// materialized (no conversion is ever forced: a row-only table shares
    /// row by row).
    pub fn from_table(table: &Table, proto: &mut Protocol) -> Result<Self, String> {
        if table.has_columns() {
            SharedRelation::from_columnar(table.as_columns(), proto)
        } else {
            SharedRelation::from_relation(table.as_rows(), proto)
        }
    }

    /// Creates an empty shared relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        SharedRelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.schema.len()
    }

    /// Total number of shared field elements (rows × columns).
    pub fn num_elems(&self) -> u64 {
        (self.num_rows() * self.num_cols()) as u64
    }

    /// Index of a named column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// Opens the whole relation to cleartext (an `open` per cell is charged).
    pub fn reconstruct(&self, proto: &mut Protocol) -> Relation {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|s| {
                        let v = proto.open(s);
                        Value::Int(v)
                    })
                    .collect()
            })
            .collect();
        // Reconstructed cells are integers; coerce the schema accordingly so
        // downstream cleartext steps treat them consistently.
        let mut schema = self.schema.clone();
        for col in &mut schema.columns {
            if col.dtype == DataType::Bool {
                col.dtype = DataType::Int;
            }
        }
        Relation { schema, rows }
    }

    /// Projects onto the named columns (free: shares are just re-arranged).
    pub fn project(&self, columns: &[String]) -> Result<SharedRelation, String> {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.col_index(c)
                    .ok_or_else(|| format!("unknown column `{c}`"))
            })
            .collect::<Result<_, _>>()?;
        let schema = self.schema.project(columns).map_err(|e| e.to_string())?;
        let rows = self
            .rows
            .iter()
            .map(|row| idxs.iter().map(|&i| row[i].clone()).collect())
            .collect();
        Ok(SharedRelation { schema, rows })
    }

    /// Applies a row permutation (used by shuffles; the permutation itself is
    /// known only to the protocol simulator).
    pub fn permute(&self, perm: &[usize]) -> SharedRelation {
        assert_eq!(perm.len(), self.num_rows());
        let rows = perm.iter().map(|&i| self.rows[i].clone()).collect();
        SharedRelation {
            schema: self.schema.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_ir::schema::ColumnDef;

    fn demo() -> Relation {
        Relation::from_ints(&["k", "v"], &[vec![1, 10], vec![2, 20], vec![3, 30]])
    }

    #[test]
    fn share_and_reconstruct_round_trip() {
        let mut p = Protocol::new(3, 1);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        assert_eq!(shared.num_rows(), 3);
        assert_eq!(shared.num_cols(), 2);
        assert_eq!(shared.num_elems(), 6);
        let back = shared.reconstruct(&mut p);
        assert_eq!(back.rows, rel.rows);
        assert_eq!(p.counts().input_elems, 6);
        assert_eq!(p.counts().opened_elems, 6);
    }

    #[test]
    fn from_columnar_shares_whole_columns_and_round_trips() {
        let mut p = Protocol::new(3, 1);
        let rel = demo();
        let columnar = ColumnarRelation::from_rows(&rel);
        let shared = SharedRelation::from_columnar(&columnar, &mut p).unwrap();
        assert_eq!(shared.num_rows(), 3);
        assert_eq!(shared.num_cols(), 2);
        assert_eq!(p.counts().input_elems, 6);
        let back = shared.reconstruct(&mut p);
        assert_eq!(back.rows, rel.rows);
        // Row-wise and column-wise sharing cost the same number of inputs.
        let mut p2 = Protocol::new(3, 1);
        SharedRelation::from_relation(&rel, &mut p2).unwrap();
        assert_eq!(p.counts().input_elems, p2.counts().input_elems);
    }

    #[test]
    fn from_table_picks_the_materialized_representation() {
        let rel = demo();
        // Row-only table: shares row by row, forcing no conversion.
        let mut p = Protocol::new(3, 1);
        let rows_table = Table::from_rows(rel.clone());
        let shared = SharedRelation::from_table(&rows_table, &mut p).unwrap();
        assert_eq!(rows_table.conversion_counts().total(), 0);
        assert_eq!(shared.reconstruct(&mut p).rows, rel.rows);
        // Column-backed table: shares whole columns.
        let mut p2 = Protocol::new(3, 1);
        let cols_table = Table::from_columns(ColumnarRelation::from_rows(&rel));
        let shared2 = SharedRelation::from_table(&cols_table, &mut p2).unwrap();
        assert_eq!(cols_table.conversion_counts().total(), 0);
        assert_eq!(shared2.reconstruct(&mut p2).rows, rel.rows);
        assert_eq!(p.counts().input_elems, p2.counts().input_elems);
    }

    #[test]
    fn from_columnar_rejects_unshareable_data() {
        let mut p = Protocol::new(3, 1);
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rel = Relation::new(schema, vec![vec![Value::Str("x".into())]]).unwrap();
        assert!(SharedRelation::from_columnar(&ColumnarRelation::from_rows(&rel), &mut p).is_err());
        // Null cells cannot be shared either.
        let ints = Schema::ints(&["a"]);
        let nulled = Relation::new(ints, vec![vec![Value::Null]]).unwrap();
        assert!(
            SharedRelation::from_columnar(&ColumnarRelation::from_rows(&nulled), &mut p).is_err()
        );
    }

    #[test]
    fn rejects_non_integer_columns() {
        let mut p = Protocol::new(3, 1);
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let rel = Relation::new(schema, vec![vec![Value::Str("x".into())]]).unwrap();
        assert!(SharedRelation::from_relation(&rel, &mut p).is_err());
        let schema2 = Schema::new(vec![ColumnDef::new("f", DataType::Float)]);
        let rel2 = Relation::new(schema2, vec![vec![Value::Float(1.5)]]).unwrap();
        assert!(SharedRelation::from_relation(&rel2, &mut p).is_err());
    }

    #[test]
    fn project() {
        let mut p = Protocol::new(3, 2);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let proj = shared.project(&["v".to_string()]).unwrap();
        assert_eq!(proj.num_cols(), 1);
        assert_eq!(
            proj.reconstruct(&mut p).column_values("v").unwrap(),
            vec![Value::Int(10), Value::Int(20), Value::Int(30)]
        );
        assert!(shared.project(&["zzz".to_string()]).is_err());
    }

    #[test]
    fn permutation_reorders_rows() {
        let mut p = Protocol::new(3, 3);
        let rel = demo();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let permuted = shared.permute(&[2, 0, 1]);
        let back = permuted.reconstruct(&mut p);
        assert_eq!(back.rows[0][0], Value::Int(3));
        assert_eq!(back.rows[1][0], Value::Int(1));
        assert!(back.same_rows_unordered(&rel));
    }

    #[test]
    fn bool_columns_are_shareable() {
        let mut p = Protocol::new(2, 4);
        let schema = Schema::new(vec![ColumnDef::new("b", DataType::Bool)]);
        let rel = Relation::new(
            schema,
            vec![vec![Value::Bool(true)], vec![Value::Bool(false)]],
        )
        .unwrap();
        let shared = SharedRelation::from_relation(&rel, &mut p).unwrap();
        let back = shared.reconstruct(&mut p);
        assert_eq!(back.rows[0][0], Value::Int(1));
        assert_eq!(back.rows[1][0], Value::Int(0));
    }
}
