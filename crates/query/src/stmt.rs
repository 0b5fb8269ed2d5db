//! TQL statements beyond `SELECT`: DDL and DML.
//!
//! ```text
//! CREATE TYPE emp (
//!     name TEXT NOT NULL,
//!     salary INT INDEXED,
//!     dept REF(dept),
//!     works_on REFSET(proj)
//! )
//!
//! CREATE MOLECULE dept_mol ROOT dept (
//!     dept.employs TO emp,
//!     emp.works_on TO proj
//! ) DEPTH 8
//!
//! INSERT INTO emp (name, salary) VALUES ('ann', 100) VALID IN [0, 50)
//! INSERT INTO emp (name, salary) VALUES ('bob', 90)           -- all time
//!
//! UPDATE emp SET salary = 120 WHERE name = 'ann' VALID IN [10, 20)
//! UPDATE job CLAIM SET state = 1 WHERE state = 0
//! DELETE FROM emp WHERE salary < 50
//! ```
//!
//! Atom references are written `@<type>.<no>` (e.g. `@2.17`), reference
//! sets `{@2.1, @2.5}`.
//!
//! DML semantics: `UPDATE … SET` loads, for every qualifying atom, the
//! current tuple of each qualifying valid-time slice, replaces the listed
//! attributes, and applies a bitemporal update over the statement's valid
//! extent (default: the slice's own extent). One statement = one
//! transaction.

use crate::ast::{Expr, Valid};
use crate::exec::{eval, find_index_conjunct, AccessPath, QueryOutput};
use crate::token::{lex, Kw, Sym, Tok, Token};
use tcom_catalog::AttrDef;
use tcom_core::{Database, Txn};
use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, AttrId, DataType, Error, Interval, MoleculeTypeId, Result,
    TimePoint, Tuple, Value,
};

/// A parsed TQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `SELECT …` (delegated to [`crate::ast::Query`]).
    Select(crate::ast::Query),
    /// `EXPLAIN ANALYZE SELECT …` — execute and report per-operator
    /// rows / time / page-I/O.
    ExplainAnalyze(crate::ast::Query),
    /// `CREATE TYPE …`.
    CreateType {
        /// Type name.
        name: String,
        /// Attribute definitions (target types by *name*, resolved at
        /// execution).
        attrs: Vec<(String, TypeSpec, bool, bool)>, // (name, type, not_null, indexed)
    },
    /// `CREATE MOLECULE …`.
    CreateMolecule {
        /// Molecule name.
        name: String,
        /// Root type name.
        root: String,
        /// Edges as `(from type, attr name, to type)`.
        edges: Vec<(String, String, String)>,
        /// Optional depth bound.
        depth: Option<u32>,
    },
    /// `INSERT INTO …`.
    Insert {
        /// Target type name.
        ty: String,
        /// Named attributes (unlisted ones become NULL).
        attrs: Vec<String>,
        /// Values, positionally matching `attrs`.
        values: Vec<Value>,
        /// Valid extent (default: all time).
        valid: Option<(TimePoint, Option<TimePoint>)>,
    },
    /// `UPDATE … SET …`, optionally `UPDATE … CLAIM SET …`.
    Update {
        /// Target type name.
        ty: String,
        /// `(attr, new value)` assignments.
        sets: Vec<(String, Value)>,
        /// Predicate over current tuples.
        filter: Option<Expr>,
        /// Valid extent; `None` = each qualifying slice's own extent.
        valid: Option<(TimePoint, Option<TimePoint>)>,
        /// Row-claim semantics: update only the *oldest* qualifying row
        /// (by atom number), under the type's commit stripe — the queue
        /// consumer's claim-and-close idiom.
        claim: bool,
    },
    /// `DELETE FROM …`.
    Delete {
        /// Target type name.
        ty: String,
        /// Predicate over current tuples.
        filter: Option<Expr>,
        /// Valid extent; `None` = each qualifying slice's own extent.
        valid: Option<(TimePoint, Option<TimePoint>)>,
    },
}

/// Attribute type syntax (type names resolved at execution time so that a
/// statement can reference the type it creates).
#[derive(Clone, Debug, PartialEq)]
pub enum TypeSpec {
    /// Scalar type.
    Scalar(DataType),
    /// `REF(name)`.
    Ref(String),
    /// `REFSET(name)`.
    RefSet(String),
}

/// Result of executing a statement.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementOutput {
    /// Query results.
    Query(QueryOutput),
    /// `EXPLAIN ANALYZE` results: the executed, annotated operator tree.
    Explain(crate::exec::ExplainReport),
    /// A new atom type.
    TypeCreated(AtomTypeId),
    /// A new molecule type.
    MoleculeCreated(MoleculeTypeId),
    /// DML: the new atom (for INSERT) and the commit transaction time.
    Inserted(AtomId, TimePoint),
    /// DML: number of atoms modified and the commit transaction time.
    Modified(usize, TimePoint),
}

/// Parses one statement.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let head = src.trim_start().to_ascii_uppercase();
    if head.starts_with("SELECT") {
        return Ok(Statement::Select(crate::parser::parse(src)?));
    }
    if head.starts_with("EXPLAIN") {
        // Only SELECT can be explained; give DML/DDL a crisp error instead
        // of the query parser's generic one.
        let mut words = head.split_ascii_whitespace().skip(1);
        if words.next() == Some("ANALYZE") {
            if let Some(kw @ ("INSERT" | "UPDATE" | "DELETE" | "CREATE")) = words.next() {
                return Err(Error::unsupported(format!(
                    "EXPLAIN ANALYZE supports only SELECT statements, not {kw}"
                )));
            }
        }
        let (_, q) = crate::parser::parse_maybe_explain(src)?;
        return Ok(Statement::ExplainAnalyze(q));
    }
    let tokens = lex(src)?;
    let mut p = StmtParser { tokens, pos: 0 };
    let s = p.statement()?;
    p.expect_eof()?;
    Ok(s)
}

/// Parses and executes one statement against `db`.
pub fn run_statement(db: &Database, src: &str) -> Result<StatementOutput> {
    run_parsed(db, parse_statement(src)?)
}

/// Runs a `SELECT` / `EXPLAIN ANALYZE` statement inside an open
/// transaction with read-your-writes: atoms the transaction touched or
/// created are read from its overlay (see
/// [`Prepared::run_in_txn`](crate::exec::Prepared::run_in_txn) for the
/// overlay's exact scope). Any other statement kind is rejected — DML
/// goes through [`apply_statement`], DDL is not allowed in a transaction.
pub fn run_query_in_txn(db: &Database, txn: &Txn<'_>, stmt: Statement) -> Result<StatementOutput> {
    match stmt {
        Statement::Select(q) => {
            let p = crate::exec::prepare_query(db, q, crate::exec::ExecOptions::default())?;
            Ok(StatementOutput::Query(p.run_in_txn(db, txn)?))
        }
        Statement::ExplainAnalyze(q) => {
            let p = crate::exec::prepare_query(db, q, crate::exec::ExecOptions::default())?;
            let (_, report) = p.run_explain_in_txn(db, txn)?;
            Ok(StatementOutput::Explain(report))
        }
        other => Err(Error::unsupported(format!(
            "run_query_in_txn takes SELECT or EXPLAIN ANALYZE, not {}",
            statement_kind(&other)
        ))),
    }
}

/// Executes an already-parsed statement against `db` (auto-commit: DML
/// statements each run in their own transaction). This is the execution
/// path behind [`run_statement`] and the server's statement cache, which
/// parses once and executes many times.
pub fn run_parsed(db: &Database, stmt: Statement) -> Result<StatementOutput> {
    match stmt {
        Statement::Select(q) => {
            let p = crate::exec::prepare_query(db, q, crate::exec::ExecOptions::default())?;
            Ok(StatementOutput::Query(p.run(db)?))
        }
        Statement::ExplainAnalyze(q) => {
            let p = crate::exec::prepare_query(db, q, crate::exec::ExecOptions::default())?;
            let (_, report) = p.run_explain(db)?;
            Ok(StatementOutput::Explain(report))
        }
        Statement::CreateType { name, attrs } => {
            let mut defs = Vec::with_capacity(attrs.len());
            for (aname, spec, not_null, indexed) in attrs {
                let ty = match spec {
                    TypeSpec::Scalar(t) => t,
                    TypeSpec::Ref(target) => DataType::Ref(resolve_type(db, &target, &name)?),
                    TypeSpec::RefSet(target) => DataType::RefSet(resolve_type(db, &target, &name)?),
                };
                let mut d = AttrDef::new(aname, ty);
                if not_null {
                    d = d.not_null();
                }
                if indexed {
                    d = d.indexed();
                }
                defs.push(d);
            }
            Ok(StatementOutput::TypeCreated(
                db.define_atom_type(name, defs)?,
            ))
        }
        Statement::CreateMolecule {
            name,
            root,
            edges,
            depth,
        } => {
            let root_id = db.atom_type_id(&root)?;
            let mut medges = Vec::with_capacity(edges.len());
            for (from, attr, to) in edges {
                let from_id = db.atom_type_id(&from)?;
                let to_id = db.atom_type_id(&to)?;
                let attr_id = db.with_catalog(|c| -> Result<AttrId> {
                    c.atom_type(from_id)?
                        .attr_by_name(&attr)
                        .map(|(id, _)| id)
                        .ok_or_else(|| Error::query(format!("unknown attribute '{from}.{attr}'")))
                })?;
                medges.push(tcom_catalog::MoleculeEdge {
                    from: from_id,
                    attr: attr_id,
                    to: to_id,
                });
            }
            Ok(StatementOutput::MoleculeCreated(
                db.define_molecule_type(name, root_id, medges, depth)?,
            ))
        }
        dml => {
            // DML: one statement = one transaction.
            let mut txn = db.begin();
            let applied = apply_statement(db, &mut txn, dml)?;
            let tt = txn.commit()?;
            Ok(match applied {
                StatementApply::Inserted(atom) => StatementOutput::Inserted(atom, tt),
                StatementApply::Modified(n) => StatementOutput::Modified(n, tt),
            })
        }
    }
}

/// The effect of one DML statement applied inside a still-open
/// transaction. The commit transaction time does not exist yet; callers
/// that need it (auto-commit, the server's COMMIT frame) take it from
/// [`Txn::commit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatementApply {
    /// INSERT: the new atom.
    Inserted(AtomId),
    /// UPDATE / DELETE: number of atoms modified.
    Modified(usize),
}

/// Applies one DML statement to an open transaction without committing.
///
/// This is the building block for multi-statement transactions (the
/// server's BEGIN … COMMIT sessions): effects buffer in `txn` and later
/// statements see them (read-your-writes), including atoms the
/// transaction created. Only `INSERT`, `UPDATE` and `DELETE` are
/// transactional; queries and DDL are rejected here.
pub fn apply_statement(
    db: &Database,
    txn: &mut Txn<'_>,
    stmt: Statement,
) -> Result<StatementApply> {
    match stmt {
        Statement::Insert {
            ty,
            attrs,
            values,
            valid,
        } => {
            let ty_id = db.atom_type_id(&ty)?;
            let def = db.with_catalog(|c| c.atom_type(ty_id).cloned())?;
            let mut tuple = Tuple::new(vec![Value::Null; def.arity()]);
            for (name, value) in attrs.iter().zip(values) {
                let (id, _) = def
                    .attr_by_name(name)
                    .ok_or_else(|| Error::query(format!("unknown attribute '{ty}.{name}'")))?;
                tuple.set(id.0 as usize, value);
            }
            let vt = valid_to_interval(valid)?;
            let atom = txn.insert_atom(ty_id, vt, tuple)?;
            Ok(StatementApply::Inserted(atom))
        }
        Statement::Update {
            ty,
            sets,
            filter,
            valid,
            claim,
        } => {
            let ty_id = db.atom_type_id(&ty)?;
            let def = db.with_catalog(|c| c.atom_type(ty_id).cloned())?;
            let mut resolved = Vec::with_capacity(sets.len());
            for (name, value) in &sets {
                let (id, _) = def
                    .attr_by_name(name)
                    .ok_or_else(|| Error::query(format!("unknown attribute '{ty}.{name}'")))?;
                resolved.push((id, value.clone()));
            }
            if claim {
                // Row-claim path: scan-and-claim inside the transaction,
                // under the type's commit stripe, so concurrent claimers
                // serialize and never double-claim a row. The claim is
                // evaluated at the valid point given by the VALID clause
                // start (default 0) and rewrites that version slice.
                let at = match &valid {
                    None => TimePoint(0),
                    Some((a, _)) => *a,
                };
                let claimed = txn.claim_next(
                    ty_id,
                    at,
                    |t| match &filter {
                        None => true,
                        Some(f) => eval(f, t, &def) == Some(true),
                    },
                    |t| {
                        let mut t = t.clone();
                        for (id, value) in &resolved {
                            t.set(id.0 as usize, value.clone());
                        }
                        t
                    },
                )?;
                return Ok(StatementApply::Modified(usize::from(claimed.is_some())));
            }
            let targets = qualifying_slices(db, txn, ty_id, &filter, &valid, &def)?;
            let mut atoms_touched = std::collections::HashSet::new();
            for (atom, slice_vt, mut tuple) in targets {
                for (id, value) in &resolved {
                    tuple.set(id.0 as usize, value.clone());
                }
                let vt = match &valid {
                    None => slice_vt,
                    Some(v) => valid_to_interval(Some(*v))?
                        .intersect(&slice_vt)
                        .ok_or_else(|| Error::internal("qualifying slice lost overlap"))?,
                };
                txn.update(atom, vt, tuple)?;
                atoms_touched.insert(atom);
            }
            Ok(StatementApply::Modified(atoms_touched.len()))
        }
        Statement::Delete { ty, filter, valid } => {
            let ty_id = db.atom_type_id(&ty)?;
            let def = db.with_catalog(|c| c.atom_type(ty_id).cloned())?;
            let targets = qualifying_slices(db, txn, ty_id, &filter, &valid, &def)?;
            let mut atoms_touched = std::collections::HashSet::new();
            for (atom, slice_vt, _) in targets {
                let vt = match &valid {
                    None => slice_vt,
                    Some(v) => valid_to_interval(Some(*v))?
                        .intersect(&slice_vt)
                        .ok_or_else(|| Error::internal("qualifying slice lost overlap"))?,
                };
                txn.delete(atom, vt)?;
                atoms_touched.insert(atom);
            }
            Ok(StatementApply::Modified(atoms_touched.len()))
        }
        other => Err(Error::unsupported(format!(
            "only INSERT, UPDATE and DELETE run inside an open transaction, not {}",
            statement_kind(&other)
        ))),
    }
}

/// Human-readable statement kind, for error messages.
pub fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::ExplainAnalyze(_) => "EXPLAIN ANALYZE",
        Statement::CreateType { .. } => "CREATE TYPE",
        Statement::CreateMolecule { .. } => "CREATE MOLECULE",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
    }
}

/// Resolves a type name, allowing self-reference within `CREATE TYPE`:
/// referencing the type being created yields the id it *will* get.
fn resolve_type(db: &Database, target: &str, creating: &str) -> Result<AtomTypeId> {
    if target == creating {
        // The new type's id is the next catalog slot.
        return Ok(AtomTypeId(db.with_catalog(|c| c.atom_types().len()) as u32));
    }
    db.atom_type_id(target)
}

fn valid_to_interval(valid: Option<(TimePoint, Option<TimePoint>)>) -> Result<Interval> {
    Ok(match valid {
        None => Interval::all(),
        Some((a, None)) => Interval::from_start(a),
        Some((a, Some(b))) => {
            Interval::new(a, b).ok_or_else(|| Error::query("empty VALID window"))?
        }
    })
}

/// Collects `(atom, slice vt, slice tuple)` for every current version that
/// satisfies the filter and overlaps the statement's valid extent, as seen
/// *by the transaction*: committed atoms plus atoms the transaction
/// created, each through the transaction's overlay (read-your-writes).
///
/// The access path mirrors a keyed SELECT's. The type's commit stripe is
/// taken first, so no other commit to the type can land between the
/// lookup and this transaction's apply. Committed candidates then come
/// from a value-index probe when a conjunct is indexable (a directory
/// scan otherwise); the transaction's own touched atoms of the type are
/// added, since the index reflects committed values only. The filter is
/// re-checked on every candidate's overlay tuples, and candidates are
/// visited in atom-number order, so targets — and the WAL records they
/// produce — come out in the same order whichever path found them.
fn qualifying_slices(
    db: &Database,
    txn: &mut Txn<'_>,
    ty: AtomTypeId,
    filter: &Option<Expr>,
    valid: &Option<(TimePoint, Option<TimePoint>)>,
    def: &tcom_catalog::AtomTypeDef,
) -> Result<Vec<(AtomId, Interval, Tuple)>> {
    let window = valid_to_interval(*valid)?;
    txn.lock_type(ty)?;
    let mut atoms = match filter.as_ref().and_then(|f| find_index_conjunct(f, def)) {
        Some(AccessPath::IndexRange { attr, lo, hi }) => {
            db.index_range_inclusive(ty, attr, lo, hi)?
        }
        _ => db.all_atoms(ty)?,
    };
    atoms.extend(txn.touched_atoms().into_iter().filter(|a| a.ty == ty));
    atoms.sort_unstable_by_key(|a| a.no);
    atoms.dedup();
    let mut out = Vec::new();
    for atom in atoms {
        for v in txn.current_versions(atom)? {
            if !v.vt.overlaps(&window) {
                continue;
            }
            let ok = match filter {
                None => true,
                Some(f) => eval(f, &v.tuple, def) == Some(true),
            };
            if ok {
                out.push((atom, v.vt, v.tuple.clone()));
            }
        }
    }
    Ok(out)
}

// ---- the statement parser ----

struct StmtParser {
    tokens: Vec<Token>,
    pos: usize,
}

impl StmtParser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let t = &self.tokens[self.pos];
        Error::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Matches a "soft" keyword: either an identifier spelled like `word`
    /// (CREATE, TYPE, VALUES…) or a reserved lexer keyword that collides
    /// with it (FROM, IN…).
    fn soft_kw(&mut self, word: &str) -> bool {
        let hit = match self.peek() {
            Tok::Ident(s) => s.eq_ignore_ascii_case(word),
            Tok::Kw(Kw::From) => word.eq_ignore_ascii_case("FROM"),
            Tok::Kw(Kw::In) => word.eq_ignore_ascii_case("IN"),
            Tok::Kw(Kw::At) => word.eq_ignore_ascii_case("AT"),
            Tok::Kw(Kw::Molecule) => word.eq_ignore_ascii_case("MOLECULE"),
            Tok::Kw(Kw::History) => word.eq_ignore_ascii_case("HISTORY"),
            _ => false,
        };
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_soft(&mut self, word: &str) -> Result<()> {
        if self.soft_kw(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected {word}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek() == &Tok::Sym(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected {sym:?}, found {:?}", self.peek())))
        }
    }

    fn int(&mut self) -> Result<i64> {
        match *self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(i)
            }
            ref other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn time(&mut self) -> Result<TimePoint> {
        let i = self.int()?;
        if i < 0 {
            return Err(self.err("time points must be non-negative"));
        }
        Ok(TimePoint(i as u64))
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.soft_kw("CREATE") {
            if self.soft_kw("TYPE") {
                return self.create_type();
            }
            if self.soft_kw("MOLECULE") {
                return self.create_molecule();
            }
            return Err(self.err("expected TYPE or MOLECULE after CREATE"));
        }
        if self.soft_kw("INSERT") {
            return self.insert();
        }
        if self.soft_kw("UPDATE") {
            return self.update();
        }
        if self.soft_kw("DELETE") {
            return self.delete();
        }
        Err(self.err("expected SELECT, CREATE, INSERT, UPDATE or DELETE"))
    }

    fn create_type(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let aname = self.ident()?;
            let spec = self.type_spec()?;
            let mut not_null = false;
            let mut indexed = false;
            loop {
                if self.peek() == &Tok::Kw(Kw::Not) {
                    self.bump();
                    if self.peek() == &Tok::Kw(Kw::Null) {
                        self.bump();
                        not_null = true;
                        continue;
                    }
                    return Err(self.err("expected NULL after NOT"));
                }
                if self.soft_kw("INDEXED") {
                    indexed = true;
                    continue;
                }
                break;
            }
            attrs.push((aname, spec, not_null, indexed));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateType { name, attrs })
    }

    fn type_spec(&mut self) -> Result<TypeSpec> {
        let word = self.ident()?;
        Ok(match word.to_ascii_uppercase().as_str() {
            "BOOL" => TypeSpec::Scalar(DataType::Bool),
            "INT" => TypeSpec::Scalar(DataType::Int),
            "FLOAT" => TypeSpec::Scalar(DataType::Float),
            "TEXT" => TypeSpec::Scalar(DataType::Text),
            "BYTES" => TypeSpec::Scalar(DataType::Bytes),
            "REF" => {
                self.expect_sym(Sym::LParen)?;
                let t = self.ident()?;
                self.expect_sym(Sym::RParen)?;
                TypeSpec::Ref(t)
            }
            "REFSET" => {
                self.expect_sym(Sym::LParen)?;
                let t = self.ident()?;
                self.expect_sym(Sym::RParen)?;
                TypeSpec::RefSet(t)
            }
            other => return Err(self.err(format!("unknown attribute type '{other}'"))),
        })
    }

    fn create_molecule(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_soft("ROOT")?;
        let root = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut edges = Vec::new();
        // Empty edge list allowed: `( )` is a single-atom molecule.
        if self.peek() != &Tok::Sym(Sym::RParen) {
            loop {
                let from = self.ident()?;
                self.expect_sym(Sym::Dot)?;
                let attr = self.ident()?;
                self.expect_soft("TO")?;
                let to = self.ident()?;
                edges.push((from, attr, to));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        self.expect_sym(Sym::RParen)?;
        let depth = if self.soft_kw("DEPTH") {
            let d = self.int()?;
            if d < 1 {
                return Err(self.err("DEPTH must be at least 1"));
            }
            Some(d as u32)
        } else {
            None
        };
        Ok(Statement::CreateMolecule {
            name,
            root,
            edges,
            depth,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_soft("INTO")?;
        let ty = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut attrs = Vec::new();
        loop {
            attrs.push(self.ident()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        self.expect_soft("VALUES")?;
        self.expect_sym(Sym::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.value()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        if values.len() != attrs.len() {
            return Err(self.err(format!(
                "{} attributes but {} values",
                attrs.len(),
                values.len()
            )));
        }
        let valid = self.valid_clause()?;
        Ok(Statement::Insert {
            ty,
            attrs,
            values,
            valid,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let ty = self.ident()?;
        let claim = self.soft_kw("CLAIM");
        self.expect_soft("SET")?;
        let mut sets = Vec::new();
        loop {
            let attr = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((attr, self.value()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let filter = self.where_clause()?;
        let valid = self.valid_clause()?;
        Ok(Statement::Update {
            ty,
            sets,
            filter,
            valid,
            claim,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_soft("FROM")?;
        let ty = self.ident()?;
        let filter = self.where_clause()?;
        let valid = self.valid_clause()?;
        Ok(Statement::Delete { ty, filter, valid })
    }

    fn where_clause(&mut self) -> Result<Option<Expr>> {
        if self.peek() == &Tok::Kw(Kw::Where) {
            self.bump();
            // Reuse the SELECT parser's expression grammar by re-lexing the
            // remaining tokens through a sub-parse. Simplest: collect the
            // raw remainder up to VALID/eof and feed it through parse().
            // Instead, parse inline with a tiny recursive grammar mirroring
            // parser.rs.
            let e = self.expr()?;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }

    // Expression grammar (mirrors parser.rs; operands additionally allow
    // atom-reference literals).
    fn expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.peek() == &Tok::Kw(Kw::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            e = Expr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.peek() == &Tok::Kw(Kw::And) {
            self.bump();
            let rhs = self.not_expr()?;
            e = Expr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.peek() == &Tok::Kw(Kw::Not) {
            self.bump();
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::LParen) {
            let e = self.expr()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(e);
        }
        let lhs = self.operand()?;
        if self.peek() == &Tok::Kw(Kw::Is) {
            self.bump();
            let negated = if self.peek() == &Tok::Kw(Kw::Not) {
                self.bump();
                true
            } else {
                false
            };
            if self.peek() != &Tok::Kw(Kw::Null) {
                return Err(self.err("expected NULL after IS"));
            }
            self.bump();
            return Ok(Expr::IsNull(lhs, negated));
        }
        use crate::ast::CmpOp;
        let op = match self.peek() {
            Tok::Sym(Sym::Eq) => CmpOp::Eq,
            Tok::Sym(Sym::Ne) => CmpOp::Ne,
            Tok::Sym(Sym::Lt) => CmpOp::Lt,
            Tok::Sym(Sym::Le) => CmpOp::Le,
            Tok::Sym(Sym::Gt) => CmpOp::Gt,
            Tok::Sym(Sym::Ge) => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        self.bump();
        let rhs = self.operand()?;
        Ok(Expr::Cmp(lhs, op, rhs))
    }

    fn operand(&mut self) -> Result<crate::ast::Operand> {
        use crate::ast::Operand;
        if let Some(v) = self.try_value()? {
            return Ok(Operand::Lit(v));
        }
        match self.peek().clone() {
            Tok::Ident(first) => {
                self.bump();
                if self.eat_sym(Sym::Dot) {
                    let attr = self.ident()?;
                    Ok(Operand::Attr {
                        qualifier: Some(first),
                        attr,
                    })
                } else {
                    Ok(Operand::Attr {
                        qualifier: None,
                        attr: first,
                    })
                }
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    /// Literal values for DML: scalars, `@ty.no` refs, `{…}` ref sets.
    fn value(&mut self) -> Result<Value> {
        self.try_value()?
            .ok_or_else(|| self.err(format!("expected literal value, found {:?}", self.peek())))
    }

    fn try_value(&mut self) -> Result<Option<Value>> {
        Ok(match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Some(Value::Int(i))
            }
            Tok::Float(f) => {
                self.bump();
                Some(Value::Float(f))
            }
            Tok::Str(s) => {
                self.bump();
                Some(Value::Text(s))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Some(Value::Bool(true))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Some(Value::Bool(false))
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                Some(Value::Null)
            }
            Tok::Sym(Sym::AtRef) => {
                self.bump();
                Some(Value::Ref(self.atom_ref()?))
            }
            Tok::Sym(Sym::LBrace) => {
                self.bump();
                let mut ids = Vec::new();
                if self.peek() != &Tok::Sym(Sym::RBrace) {
                    loop {
                        self.expect_sym(Sym::AtRef)?;
                        ids.push(self.atom_ref()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                }
                self.expect_sym(Sym::RBrace)?;
                Some(Value::ref_set(ids))
            }
            _ => None,
        })
    }

    /// Parses `<ty>.<no>` after the `@` sigil (the lexer guarantees the
    /// two parts arrive as Int-Dot-Int, never as a float).
    fn atom_ref(&mut self) -> Result<AtomId> {
        let ty = self.int()?;
        self.expect_sym(Sym::Dot)?;
        let no = self.int()?;
        if ty < 0 || no < 0 {
            return Err(self.err("atom reference parts must be non-negative"));
        }
        Ok(AtomId::new(AtomTypeId(ty as u32), AtomNo(no as u64)))
    }

    fn valid_clause(&mut self) -> Result<Option<(TimePoint, Option<TimePoint>)>> {
        if self.peek() != &Tok::Kw(Kw::Valid) {
            return Ok(None);
        }
        self.bump();
        if self.peek() == &Tok::Kw(Kw::In) {
            self.bump();
            self.expect_sym(Sym::LBracket)?;
            let a = self.time()?;
            self.expect_sym(Sym::Comma)?;
            let b = self.time()?;
            if !self.eat_sym(Sym::RParen) {
                self.expect_sym(Sym::RBracket)?;
            }
            if a >= b {
                return Err(self.err("empty VALID window"));
            }
            return Ok(Some((a, Some(b))));
        }
        if self.soft_kw("FROM") {
            let a = self.time()?;
            return Ok(Some((a, None)));
        }
        Err(self.err("expected IN or FROM after VALID"))
    }
}

/// Converts a valid clause to the AST form used by SELECT (test helper).
pub fn valid_of(v: Option<(TimePoint, Option<TimePoint>)>) -> Valid {
    match v {
        None => Valid::Any,
        Some((a, None)) => Valid::At(a),
        Some((a, Some(b))) => Valid::In(a, b),
    }
}
