//! Word-level codec for query results, and the client side of the wire API.
//!
//! The serving protocol frames ([`conclave_net::serve`]) carry opaque `u64`
//! word payloads; this module owns the encoding of a query's per-recipient
//! output relations into those words:
//!
//! ```text
//! [n_outputs]
//!   per output: [party] [n_cols] (packed name, [dtype])*  [n_rows] rows…
//!   per value:  [tag]  tag 0=NULL, 1=INT(word), 2=FLOAT(bits),
//!                      3=STR(packed), 4=BOOL(0/1)
//! ```
//!
//! Trust annotations are *not* carried: a wire result is cleartext already
//! revealed to its recipient, so the decoded schema is plain named/typed
//! columns.

use crate::error::{ServerError, ERR_BAD_RESULT};
use conclave_engine::Relation;
use conclave_ir::party::PartyId;
use conclave_ir::schema::{ColumnDef, Schema};
use conclave_ir::types::{DataType, Value};
use conclave_net::serve::{pack_text, submit_sql, unpack_error, unpack_text};
use conclave_net::{MessageKind, Transport};
use std::collections::BTreeMap;

const TAG_NULL: u64 = 0;
const TAG_INT: u64 = 1;
const TAG_FLOAT: u64 = 2;
const TAG_STR: u64 = 3;
const TAG_BOOL: u64 = 4;

fn dtype_code(dtype: DataType) -> u64 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_code(code: u64) -> Result<DataType, String> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        other => return Err(format!("unknown column type code {other}")),
    })
}

/// Encodes per-recipient output relations into a result payload.
pub fn encode_outputs(outputs: &BTreeMap<PartyId, Relation>) -> Vec<u64> {
    let mut words = vec![outputs.len() as u64];
    for (party, rel) in outputs {
        words.push(u64::from(*party));
        words.push(rel.schema.len() as u64);
        for col in &rel.schema.columns {
            words.extend(pack_text(&col.name));
            words.push(dtype_code(col.dtype));
        }
        words.push(rel.rows.len() as u64);
        for row in &rel.rows {
            for value in row {
                match value {
                    Value::Null => words.push(TAG_NULL),
                    Value::Int(v) => {
                        words.push(TAG_INT);
                        words.push(*v as u64);
                    }
                    Value::Float(v) => {
                        words.push(TAG_FLOAT);
                        words.push(v.to_bits());
                    }
                    Value::Str(s) => {
                        words.push(TAG_STR);
                        words.extend(pack_text(s));
                    }
                    Value::Bool(b) => {
                        words.push(TAG_BOOL);
                        words.push(u64::from(*b));
                    }
                }
            }
        }
    }
    words
}

struct Cursor<'a> {
    words: &'a [u64],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<u64, String> {
        let word = *self
            .words
            .get(self.at)
            .ok_or_else(|| format!("result payload truncated at word {}", self.at))?;
        self.at += 1;
        Ok(word)
    }

    /// Words not yet consumed: an upper bound on how many more values (of
    /// at least one word each) the payload can still hold, so it caps every
    /// pre-allocation sized from an unchecked count.
    fn remaining(&self) -> usize {
        self.words.len() - self.at
    }

    fn text(&mut self) -> Result<String, String> {
        let len = self.next()? as usize;
        let body_words = len.div_ceil(8);
        let end = self.at + body_words;
        if end > self.words.len() {
            return Err(format!("text of {len} bytes truncated at word {}", self.at));
        }
        let mut framed = Vec::with_capacity(1 + body_words);
        framed.push(len as u64);
        framed.extend_from_slice(&self.words[self.at..end]);
        self.at = end;
        unpack_text(&framed)
    }
}

/// Decodes a result payload back into per-recipient relations.
pub fn decode_outputs(words: &[u64]) -> Result<BTreeMap<PartyId, Relation>, String> {
    let mut cur = Cursor { words, at: 0 };
    let n_outputs = cur.next()?;
    let mut outputs = BTreeMap::new();
    for _ in 0..n_outputs {
        let party = PartyId::try_from(cur.next()?).map_err(|e| format!("bad party id: {e}"))?;
        let n_cols = cur.next()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(cur.remaining()));
        for _ in 0..n_cols {
            let name = cur.text()?;
            let dtype = dtype_from_code(cur.next()?)?;
            columns.push(ColumnDef::new(name, dtype));
        }
        let n_rows = cur.next()? as usize;
        if n_cols == 0 && n_rows > 0 {
            // Zero-width rows take no words, so nothing would bound the loop.
            return Err(format!("{n_rows} rows without columns"));
        }
        let mut rows = Vec::with_capacity(n_rows.min(cur.remaining()));
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                row.push(match cur.next()? {
                    TAG_NULL => Value::Null,
                    TAG_INT => Value::Int(cur.next()? as i64),
                    TAG_FLOAT => Value::Float(f64::from_bits(cur.next()?)),
                    TAG_STR => Value::Str(cur.text()?),
                    TAG_BOOL => Value::Bool(cur.next()? != 0),
                    other => return Err(format!("unknown value tag {other}")),
                });
            }
            rows.push(row);
        }
        let rel = Relation::new(Schema::new(columns), rows).map_err(|e| e.to_string())?;
        outputs.insert(party, rel);
    }
    if cur.at != words.len() {
        return Err(format!(
            "{} trailing words after the last output",
            words.len() - cur.at
        ));
    }
    Ok(outputs)
}

/// Submits one query over an established client link (party 0 of a
/// two-endpoint transport) and decodes the reply: the remote equivalent of
/// `ServerHandle::query`.
pub fn query_remote(
    link: &dyn Transport,
    tenant: &str,
    sql: &str,
) -> Result<BTreeMap<PartyId, Relation>, ServerError> {
    let reply = submit_sql(link, tenant, sql).map_err(|e| ServerError::Remote {
        code: ERR_BAD_RESULT,
        message: format!("transport failure: {e}"),
    })?;
    match reply.kind {
        MessageKind::QueryResult => {
            decode_outputs(&reply.payload).map_err(|message| ServerError::Remote {
                code: ERR_BAD_RESULT,
                message,
            })
        }
        MessageKind::QueryError => {
            let (code, message) =
                unpack_error(&reply.payload).map_err(|message| ServerError::Remote {
                    code: ERR_BAD_RESULT,
                    message,
                })?;
            Err(ServerError::Remote { code, message })
        }
        other => Err(ServerError::Remote {
            code: ERR_BAD_RESULT,
            message: format!("unexpected reply frame {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_round_trip_through_the_codec() {
        let mut outputs = BTreeMap::new();
        outputs.insert(
            1,
            Relation::new(
                Schema::new(vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                    ColumnDef::new("avg", DataType::Float),
                    ColumnDef::new("ok", DataType::Bool),
                ]),
                vec![
                    vec![
                        Value::Int(-7),
                        Value::Str("acme".into()),
                        Value::Float(2.5),
                        Value::Bool(true),
                    ],
                    vec![
                        Value::Null,
                        Value::Str(String::new()),
                        Value::Null,
                        Value::Bool(false),
                    ],
                ],
            )
            .unwrap(),
        );
        outputs.insert(3, Relation::from_ints(&["x"], &[]));
        let words = encode_outputs(&outputs);
        let decoded = decode_outputs(&words).unwrap();
        assert_eq!(decoded, outputs);
    }

    #[test]
    fn truncated_and_malformed_payloads_are_typed_errors() {
        let mut outputs = BTreeMap::new();
        outputs.insert(1, Relation::from_ints(&["a"], &[vec![5]]));
        let words = encode_outputs(&outputs);
        for cut in 0..words.len() {
            assert!(decode_outputs(&words[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = words.clone();
        trailing.push(0);
        assert!(decode_outputs(&trailing).unwrap_err().contains("trailing"));
        let mut bad_tag = words;
        *bad_tag.last_mut().unwrap() = 99;
        // The tag position depends on layout: the last word is the INT value,
        // the one before it the tag.
        let len = bad_tag.len();
        bad_tag[len - 2] = 99;
        assert!(decode_outputs(&bad_tag[..len - 1])
            .unwrap_err()
            .contains("unknown value tag"));
    }
}
