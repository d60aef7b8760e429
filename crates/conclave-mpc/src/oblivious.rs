//! Oblivious relational sub-protocols over in-process secret-shared
//! relations, used by the hybrid protocols of §5.3: oblivious shuffles,
//! Laud-style oblivious indexing (`select`), and the sorting-based
//! aggregation of Jónsson et al. over a key-grouped relation. Every function
//! charges its primitive cost to the [`Protocol`], so the hybrid protocols'
//! simulated runtimes reflect the asymptotics the paper's arguments rely on
//! (e.g. the `𝒪((n+m)·log(n+m))` hybrid-join indexing step). The party
//! runtime ([`crate::runtime`]) implements the full operator set on real
//! per-party shares.

use crate::cost::PrimitiveCounts;
use crate::protocol::Protocol;
use crate::relation::SharedRelation;
use crate::share::Shares;
use conclave_ir::ops::{aggregate_schema, AggFunc};

/// Obliviously shuffles the rows of a shared relation.
///
/// The permutation is chosen inside the protocol simulator (standing in for a
/// resharing-based shuffle); the cost charged is proportional to the number
/// of shared elements moved.
pub fn shuffle(rel: &SharedRelation, proto: &mut Protocol) -> SharedRelation {
    proto.charge_shuffle(rel.num_elems());
    let perm = proto.random_permutation(rel.num_rows());
    rel.permute(&perm)
}

/// Laud-style oblivious indexing (`select`): given a data relation and a
/// single-column relation of secret row indexes, returns the data rows at
/// those positions, in index order, still secret-shared.
///
/// The real protocol costs `𝒪((n+m)·log(n+m))` non-linear operations; that
/// cost is charged here while the selection itself is performed by the
/// protocol simulator.
pub fn oblivious_select(
    data: &SharedRelation,
    indexes: &SharedRelation,
    index_column: &str,
    proto: &mut Protocol,
) -> Result<SharedRelation, String> {
    let idx_col = indexes
        .col_index(index_column)
        .ok_or_else(|| format!("unknown index column `{index_column}`"))?;
    let n = data.num_rows() as u64;
    let m = indexes.num_rows() as u64;
    let total = (n + m).max(2);
    let log = 64 - total.leading_zeros() as u64;
    proto.charge(&PrimitiveCounts {
        mults: total * log * data.num_cols() as u64,
        ..Default::default()
    });
    let mut rows = Vec::with_capacity(indexes.num_rows());
    for row in &indexes.rows {
        let i = row[idx_col].reconstruct().to_i64();
        let i = usize::try_from(i).map_err(|_| "negative oblivious index".to_string())?;
        let data_row = data
            .rows
            .get(i)
            .ok_or_else(|| format!("oblivious index {i} out of bounds"))?;
        rows.push(data_row.clone());
    }
    Ok(SharedRelation {
        schema: data.schema.clone(),
        rows,
    })
}

/// Sorting-based oblivious aggregation (Jónsson et al.), as used by the
/// paper's prototype: the input must already be grouped by the group-by
/// column (at least one); the scan accumulates each group into its last row
/// and the non-final rows are discarded after a shuffle-and-reveal of the
/// equality flags.
pub fn aggregate_sorted(
    rel: &SharedRelation,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
    proto: &mut Protocol,
) -> Result<SharedRelation, String> {
    let key_cols: Vec<usize> = group_by
        .iter()
        .map(|c| {
            rel.col_index(c)
                .ok_or_else(|| format!("unknown column `{c}`"))
        })
        .collect::<Result<_, _>>()?;
    let over_col = match over {
        Some(o) => Some(
            rel.col_index(o)
                .ok_or_else(|| format!("unknown column `{o}`"))?,
        ),
        None => None,
    };
    if func.needs_over() && over_col.is_none() {
        return Err(format!("{func} requires an over column"));
    }
    if key_cols.is_empty() {
        return Err("oblivious aggregation needs a group-by column".into());
    }
    let schema =
        aggregate_schema(&rel.schema, group_by, func, over, out).map_err(|e| e.to_string())?;

    let n = rel.num_rows();
    if n == 0 {
        return Ok(SharedRelation::empty(schema));
    }

    // Grouped aggregation over a key-sorted relation.
    let mut acc: Vec<Shares> = Vec::with_capacity(n); // running aggregate per row
    let mut last_of_group: Vec<Shares> = Vec::with_capacity(n);
    let init = |proto: &mut Protocol, row: &Vec<Shares>| -> Shares {
        match func {
            AggFunc::Count => proto.constant(1),
            _ => row[over_col.expect("checked above")].clone(),
        }
    };
    acc.push(init(proto, &rel.rows[0]));
    for i in 1..n {
        // eq = 1 iff this row belongs to the same group as the previous one
        // (all key columns equal).
        let mut eq = proto.constant(1);
        for &k in &key_cols {
            let e = proto.eq(&rel.rows[i][k], &rel.rows[i - 1][k]);
            eq = proto.mul(&eq, &e);
        }
        let current = init(proto, &rel.rows[i]);
        let combined = match func {
            AggFunc::Count | AggFunc::Sum => proto.add(&acc[i - 1], &current),
            AggFunc::Min => {
                let cond = proto.lt(&acc[i - 1], &current);
                proto.mux(&cond, &acc[i - 1], &current)
            }
            AggFunc::Max => {
                let cond = proto.lt(&current, &acc[i - 1]);
                proto.mux(&cond, &acc[i - 1], &current)
            }
        };
        // If same group, carry the combined aggregate; otherwise restart.
        let value = proto.mux(&eq, &combined, &current);
        acc.push(value);
        // The previous row is the last of its group iff eq == 0.
        let one = proto.constant(1);
        let not_eq = proto.sub(&one, &eq);
        last_of_group.push(not_eq);
    }
    // The final row is always the last of its group.
    last_of_group.push(proto.constant(1));

    // Build candidate output rows (group keys + aggregate), shuffle them
    // together with their flags, reveal the flags and discard non-final rows
    // — revealing only the (already public, §5.3) result cardinality.
    let mut candidates = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<Shares> = key_cols.iter().map(|&k| rel.rows[i][k].clone()).collect();
        row.push(acc[i].clone());
        row.push(last_of_group[i].clone());
        candidates.push(row);
    }
    let mut flagged_schema = schema.clone();
    flagged_schema
        .push(conclave_ir::schema::ColumnDef::new(
            "__last_of_group",
            conclave_ir::types::DataType::Int,
        ))
        .map_err(|e| e.to_string())?;
    let tmp = SharedRelation {
        schema: flagged_schema,
        rows: candidates,
    };
    let shuffled = shuffle(&tmp, proto);
    let mut rows = Vec::new();
    for row in shuffled.rows {
        let flag_share = row.last().expect("flag column present").clone();
        let keep = proto.open(&flag_share) == 1;
        if keep {
            rows.push(row[..row.len() - 1].to_vec());
        }
    }
    Ok(SharedRelation { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::{execute, Relation};
    use conclave_ir::ops::Operator;
    use conclave_ir::types::Value;

    fn share(rel: &Relation, proto: &mut Protocol) -> SharedRelation {
        SharedRelation::from_relation(rel, proto).unwrap()
    }

    fn grouped_sum(rel: &SharedRelation, p: &mut Protocol) -> SharedRelation {
        aggregate_sorted(rel, &["k".to_string()], AggFunc::Sum, Some("v"), "s", p).unwrap()
    }

    #[test]
    fn shuffle_preserves_multiset_and_charges_cost() {
        let mut p = Protocol::new(3, 1);
        let rel = Relation::from_ints(
            &["k", "v"],
            &(0..20).map(|i| vec![i, i * 10]).collect::<Vec<_>>(),
        );
        let shared = share(&rel, &mut p);
        let shuffled = shuffle(&shared, &mut p);
        let back = shuffled.reconstruct(&mut p);
        assert!(back.same_rows_unordered(&rel));
        assert_eq!(p.counts().shuffled_elems, 40);
    }

    #[test]
    fn oblivious_select_matches_cleartext_select() {
        let mut p = Protocol::new(3, 4);
        let data = Relation::from_ints(
            &["a", "b"],
            &[vec![0, 0], vec![1, 10], vec![2, 20], vec![3, 30]],
        );
        let idx = Relation::from_ints(&["idx"], &[vec![3], vec![1]]);
        let sdata = share(&data, &mut p);
        let sidx = share(&idx, &mut p);
        let selected = oblivious_select(&sdata, &sidx, "idx", &mut p).unwrap();
        let back = selected.reconstruct(&mut p);
        let expected = execute(
            &Operator::ObliviousSelect {
                index_column: "idx".into(),
            },
            &[&data, &idx],
        )
        .unwrap();
        assert_eq!(back.rows, expected.rows);
        assert!(p.counts().mults > 0, "select must charge its cost");
        // Errors.
        let bad_idx = Relation::from_ints(&["idx"], &[vec![99]]);
        let sbad = share(&bad_idx, &mut p);
        assert!(oblivious_select(&sdata, &sbad, "idx", &mut p).is_err());
        assert!(oblivious_select(&sdata, &sidx, "nope", &mut p).is_err());
    }

    #[test]
    fn sorted_aggregation_matches_cleartext_sum_and_count() {
        let mut p = Protocol::new(3, 6);
        let rel = Relation::from_ints(
            &["zip", "score"],
            &[
                vec![1, 700],
                vec![1, 650],
                vec![2, 600],
                vec![3, 720],
                vec![3, 680],
            ],
        );
        let shared = share(&rel, &mut p);
        for (func, over, out) in [
            (AggFunc::Sum, Some("score"), "total"),
            (AggFunc::Count, None, "n"),
            (AggFunc::Min, Some("score"), "lo"),
            (AggFunc::Max, Some("score"), "hi"),
        ] {
            let agg =
                aggregate_sorted(&shared, &["zip".to_string()], func, over, out, &mut p).unwrap();
            let back = agg.reconstruct(&mut p);
            let expected = execute(
                &Operator::Aggregate {
                    group_by: vec!["zip".into()],
                    func,
                    over: over.map(|s| s.to_string()),
                    out: out.to_string(),
                },
                &[&rel],
            )
            .unwrap();
            assert!(
                back.same_rows_unordered(&expected),
                "{func} aggregation mismatch:\n{back}\nvs\n{expected}"
            );
        }
    }

    #[test]
    fn aggregation_rejects_bad_shapes_and_passes_empty_input() {
        let mut p = Protocol::new(3, 7);
        let rel = Relation::from_ints(&["k", "v"], &[vec![1, 5], vec![1, 7]]);
        let shared = share(&rel, &mut p);
        let key = ["k".to_string()];
        // Scalar aggregation is not a hybrid-protocol shape.
        assert!(aggregate_sorted(&shared, &[], AggFunc::Sum, Some("v"), "t", &mut p).is_err());
        // Missing or unknown over column.
        assert!(aggregate_sorted(&shared, &key, AggFunc::Sum, None, "t", &mut p).is_err());
        assert!(aggregate_sorted(&shared, &key, AggFunc::Sum, Some("zzz"), "t", &mut p).is_err());

        let empty = SharedRelation::empty(conclave_ir::schema::Schema::ints(&["k", "v"]));
        let grouped = grouped_sum(&empty, &mut p);
        assert_eq!(grouped.num_rows(), 0);
        assert_eq!(grouped.schema.names(), vec!["k", "s"]);
    }

    #[test]
    fn empty_relations_flow_through_every_oblivious_operator() {
        let mut p = Protocol::new(3, 21);
        let schema = conclave_ir::schema::Schema::ints(&["k", "v"]);
        let empty = SharedRelation::empty(schema);
        assert_eq!(shuffle(&empty, &mut p).num_rows(), 0);
        assert_eq!(grouped_sum(&empty, &mut p).num_rows(), 0);
        // Selecting with an empty index relation selects nothing.
        let some = share(&Relation::from_ints(&["k", "v"], &[vec![1, 2]]), &mut p);
        let empty_idx = SharedRelation::empty(conclave_ir::schema::Schema::ints(&["i"]));
        let selected = oblivious_select(&some, &empty_idx, "i", &mut p).unwrap();
        assert_eq!(selected.num_rows(), 0);
        // Selecting from empty data with a non-empty index is out of bounds.
        let idx = share(&Relation::from_ints(&["i"], &[vec![0]]), &mut p);
        assert!(oblivious_select(&empty, &idx, "i", &mut p).is_err());
    }

    #[test]
    fn all_duplicate_keys_collapse_to_one_group() {
        let mut p = Protocol::new(3, 22);
        let rows: Vec<Vec<i64>> = (0..4).map(|i| vec![7, i]).collect();
        let shared = share(&Relation::from_ints(&["k", "v"], &rows), &mut p);
        let back = grouped_sum(&shared, &mut p).reconstruct(&mut p);
        assert_eq!(back.rows, vec![vec![Value::Int(7), Value::Int(6)]]);
    }

    #[test]
    fn single_row_inputs_are_fixed_points_of_oblivious_operators() {
        let mut p = Protocol::new(3, 23);
        let rel = Relation::from_ints(&["k", "v"], &[vec![3, 4]]);
        let shared = share(&rel, &mut p);
        assert_eq!(shuffle(&shared, &mut p).reconstruct(&mut p).rows, rel.rows);
        let agg = aggregate_sorted(
            &shared,
            &["k".to_string()],
            AggFunc::Min,
            Some("v"),
            "m",
            &mut p,
        )
        .unwrap();
        assert_eq!(agg.reconstruct(&mut p).rows, rel.rows);
    }
}
