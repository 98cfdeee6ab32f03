//! Compilation of FPCore benchmarks to machine programs.
//!
//! The compiler plays the role of the FPCore→C compiler plus GCC in the
//! paper's evaluation pipeline (§8.1): it turns each benchmark into
//! straight-line machine code with explicit control flow, so that the
//! analysis observes the same kind of instruction stream a binary would
//! produce — including re-executed loop bodies, branches as spots, and copies
//! that symbolic expressions must see through.

use crate::libm_lowering::{self, Emitter};
use crate::program::{Addr, Pred, Program, SourceLoc, Statement};
use fpcore::ast::{Constant, Expr, FPCore};
use shadowreal::RealOp;
use std::collections::HashMap;
use std::fmt;

/// Errors produced during compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A variable was referenced that is not in scope.
    UnboundVariable(String),
    /// A boolean expression appeared where a number is required.
    BooleanInNumericPosition,
    /// A numeric expression appeared where a boolean is required.
    NumericInBooleanPosition,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnboundVariable(name) => write!(f, "unbound variable {name}"),
            CompileError::BooleanInNumericPosition => {
                write!(f, "boolean expression used as a number")
            }
            CompileError::NumericInBooleanPosition => {
                write!(f, "numeric expression used as a condition")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Options controlling compilation.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// When true, calls to math-library operations (`sin`, `exp`, `pow`, ...)
    /// are expanded into sequences of primitive instructions, modelling what
    /// the analysis sees when library wrapping is disabled (§8.2). When
    /// false (the default), library calls remain single instructions.
    pub lower_library_calls: bool,
    /// The file name used in generated source locations.
    pub source_file: Option<String>,
}

/// A branch label, resolved during finalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Label(usize);

struct Compiler {
    statements: Vec<Statement>,
    lines: Vec<u32>,
    next_addr: Addr,
    scopes: Vec<HashMap<String, Addr>>,
    labels: Vec<Option<usize>>,
    pending: Vec<(usize, Label)>,
    options: CompileOptions,
    current_line: u32,
}

impl Emitter for Compiler {
    fn fresh(&mut self) -> Addr {
        let a = self.next_addr;
        self.next_addr += 1;
        a
    }

    fn emit_const(&mut self, value: f64) -> Addr {
        let dest = self.fresh();
        self.push(Statement::ConstF { dest, value });
        dest
    }

    fn emit_op(&mut self, op: RealOp, args: Vec<Addr>) -> Addr {
        let dest = self.fresh();
        self.push(Statement::Compute { dest, op, args });
        dest
    }
}

impl Compiler {
    fn new(options: CompileOptions) -> Compiler {
        Compiler {
            statements: Vec::new(),
            lines: Vec::new(),
            next_addr: 0,
            scopes: vec![HashMap::new()],
            labels: Vec::new(),
            pending: Vec::new(),
            options,
            current_line: 1,
        }
    }

    fn push(&mut self, stmt: Statement) -> usize {
        self.statements.push(stmt);
        self.lines.push(self.current_line);
        self.statements.len() - 1
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.statements.len());
    }

    fn branch_to(&mut self, pred: Pred, label: Label) {
        let index = self.push(Statement::Branch {
            pred,
            target: usize::MAX,
        });
        self.pending.push((index, label));
    }

    fn lookup(&self, name: &str) -> Option<Addr> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn define(&mut self, name: &str, addr: Addr) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), addr);
    }

    fn compile_number(&mut self, value: f64) -> Addr {
        self.emit_const(value)
    }

    /// Compiles an expression in numeric position, returning the address of
    /// its value.
    fn compile_expr(&mut self, expr: &Expr) -> Result<Addr, CompileError> {
        self.current_line += 1;
        match expr {
            Expr::Number(n) => Ok(self.compile_number(*n)),
            Expr::Const(Constant::True) | Expr::Const(Constant::False) => {
                Err(CompileError::BooleanInNumericPosition)
            }
            Expr::Const(c) => Ok(self.compile_number(c.value())),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| CompileError::UnboundVariable(name.clone())),
            Expr::Op(op, args) => {
                let call_line = self.current_line;
                let mut addrs = Vec::with_capacity(args.len());
                for a in args {
                    addrs.push(self.compile_expr(a)?);
                }
                if self.options.lower_library_calls && op.is_library_call() {
                    // The lowered instruction sequence carries the *call
                    // site's* line, not whatever line the last argument
                    // subexpression advanced the cursor to — reports and
                    // static lints must point at the user's `exp`/`log`
                    // call, never at lowered internals.
                    let after_args = self.current_line;
                    self.current_line = call_line;
                    let lowered = libm_lowering::lower_call(self, *op, &addrs);
                    self.current_line = after_args;
                    if let Some(result) = lowered {
                        return Ok(result);
                    }
                }
                Ok(self.emit_op(*op, addrs))
            }
            Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
                // Materialize a boolean as 1.0 / 0.0 (rare in benchmarks, but
                // legal FPCore).
                let result = self.fresh();
                let true_label = self.new_label();
                let false_label = self.new_label();
                let end = self.new_label();
                self.compile_cond(expr, true_label, false_label)?;
                self.bind(true_label);
                self.push(Statement::ConstF {
                    dest: result,
                    value: 1.0,
                });
                self.branch_to(Pred::Always, end);
                self.bind(false_label);
                self.push(Statement::ConstF {
                    dest: result,
                    value: 0.0,
                });
                self.bind(end);
                Ok(result)
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let result = self.fresh();
                let true_label = self.new_label();
                let false_label = self.new_label();
                let end = self.new_label();
                self.compile_cond(cond, true_label, false_label)?;
                self.bind(true_label);
                let then_addr = self.compile_expr(then)?;
                self.push(Statement::Copy {
                    dest: result,
                    src: then_addr,
                });
                self.branch_to(Pred::Always, end);
                self.bind(false_label);
                let else_addr = self.compile_expr(otherwise)?;
                self.push(Statement::Copy {
                    dest: result,
                    src: else_addr,
                });
                self.bind(end);
                Ok(result)
            }
            Expr::Let {
                sequential,
                bindings,
                body,
            } => {
                if *sequential {
                    self.scopes.push(HashMap::new());
                    for (name, e) in bindings {
                        let addr = self.compile_expr(e)?;
                        self.define(name, addr);
                    }
                } else {
                    let mut addrs = Vec::with_capacity(bindings.len());
                    for (_, e) in bindings {
                        addrs.push(self.compile_expr(e)?);
                    }
                    self.scopes.push(HashMap::new());
                    for ((name, _), addr) in bindings.iter().zip(addrs) {
                        self.define(name, addr);
                    }
                }
                let result = self.compile_expr(body)?;
                self.scopes.pop();
                Ok(result)
            }
            Expr::While {
                sequential,
                cond,
                vars,
                body,
            } => {
                // Allocate a stable address per loop variable; initializers
                // are evaluated in the outer scope.
                let var_addrs: Vec<Addr> = vars.iter().map(|_| self.fresh()).collect();
                let mut init_addrs = Vec::with_capacity(vars.len());
                for (_, init, _) in vars {
                    init_addrs.push(self.compile_expr(init)?);
                }
                for (&dest, src) in var_addrs.iter().zip(init_addrs) {
                    self.push(Statement::Copy { dest, src });
                }
                self.scopes.push(HashMap::new());
                for ((name, _, _), &addr) in vars.iter().zip(&var_addrs) {
                    self.define(name, addr);
                }
                let head = self.new_label();
                let body_label = self.new_label();
                let exit = self.new_label();
                self.bind(head);
                self.compile_cond(cond, body_label, exit)?;
                self.bind(body_label);
                if *sequential {
                    for ((_, _, update), &addr) in vars.iter().zip(&var_addrs) {
                        let next = self.compile_expr(update)?;
                        self.push(Statement::Copy {
                            dest: addr,
                            src: next,
                        });
                    }
                } else {
                    let mut next_addrs = Vec::with_capacity(vars.len());
                    for (_, _, update) in vars {
                        next_addrs.push(self.compile_expr(update)?);
                    }
                    for (&addr, next) in var_addrs.iter().zip(next_addrs) {
                        self.push(Statement::Copy {
                            dest: addr,
                            src: next,
                        });
                    }
                }
                self.branch_to(Pred::Always, head);
                self.bind(exit);
                let result = self.compile_expr(body)?;
                self.scopes.pop();
                Ok(result)
            }
        }
    }

    /// Compiles an expression in boolean position as control flow to one of
    /// two labels.
    fn compile_cond(
        &mut self,
        expr: &Expr,
        true_label: Label,
        false_label: Label,
    ) -> Result<(), CompileError> {
        match expr {
            Expr::Const(Constant::True) => {
                self.branch_to(Pred::Always, true_label);
                Ok(())
            }
            Expr::Const(Constant::False) => {
                self.branch_to(Pred::Always, false_label);
                Ok(())
            }
            Expr::Not(inner) => self.compile_cond(inner, false_label, true_label),
            Expr::And(args) => {
                for (i, arg) in args.iter().enumerate() {
                    if i + 1 == args.len() {
                        self.compile_cond(arg, true_label, false_label)?;
                    } else {
                        let next = self.new_label();
                        self.compile_cond(arg, next, false_label)?;
                        self.bind(next);
                    }
                }
                if args.is_empty() {
                    self.branch_to(Pred::Always, true_label);
                }
                Ok(())
            }
            Expr::Or(args) => {
                for (i, arg) in args.iter().enumerate() {
                    if i + 1 == args.len() {
                        self.compile_cond(arg, true_label, false_label)?;
                    } else {
                        let next = self.new_label();
                        self.compile_cond(arg, true_label, next)?;
                        self.bind(next);
                    }
                }
                if args.is_empty() {
                    self.branch_to(Pred::Always, false_label);
                }
                Ok(())
            }
            Expr::Cmp(op, args) => {
                // Chained comparison: every adjacent pair must hold.
                let mut addrs = Vec::with_capacity(args.len());
                for a in args {
                    addrs.push(self.compile_expr(a)?);
                }
                for pair in addrs.windows(2) {
                    let keep_going = self.new_label();
                    self.branch_to(Pred::Cmp(*op, pair[0], pair[1]), keep_going);
                    self.branch_to(Pred::Always, false_label);
                    self.bind(keep_going);
                }
                self.branch_to(Pred::Always, true_label);
                Ok(())
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                // An `if` returning booleans in condition position.
                let then_label = self.new_label();
                let else_label = self.new_label();
                self.compile_cond(cond, then_label, else_label)?;
                self.bind(then_label);
                self.compile_cond(then, true_label, false_label)?;
                self.bind(else_label);
                self.compile_cond(otherwise, true_label, false_label)
            }
            Expr::Number(_)
            | Expr::Const(_)
            | Expr::Var(_)
            | Expr::Op(..)
            | Expr::Let { .. }
            | Expr::While { .. } => Err(CompileError::NumericInBooleanPosition),
        }
    }

    fn finalize(mut self, name: &str, arg_addrs: Vec<Addr>) -> Program {
        // Resolve pending branch targets.
        for (index, label) in std::mem::take(&mut self.pending) {
            let target = self.labels[label.0].expect("label bound before finalize");
            if let Statement::Branch { target: t, .. } = &mut self.statements[index] {
                *t = target;
            }
        }
        let file = self
            .options
            .source_file
            .clone()
            .unwrap_or_else(|| format!("{name}.fpcore"));
        let locations = self
            .lines
            .iter()
            .map(|&line| SourceLoc::new(file.clone(), line, name.to_string()))
            .collect();
        Program {
            name: name.to_string(),
            statements: self.statements,
            locations,
            num_addrs: self.next_addr,
            arg_addrs,
        }
    }
}

/// Compiles an FPCore benchmark into a machine program whose single output is
/// the benchmark's result.
///
/// # Errors
///
/// Returns a [`CompileError`] for unbound variables or misuse of booleans.
pub fn compile_core(core: &FPCore, options: CompileOptions) -> Result<Program, CompileError> {
    let mut compiler = Compiler::new(options);
    let mut arg_addrs = Vec::with_capacity(core.arguments.len());
    for name in &core.arguments {
        let addr = compiler.fresh();
        compiler.define(name, addr);
        arg_addrs.push(addr);
    }
    let result = compiler.compile_expr(&core.body)?;
    compiler.push(Statement::Output { src: result });
    compiler.push(Statement::Halt);
    let program = compiler.finalize(core.display_name(), arg_addrs);
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Machine;
    use fpcore::eval::eval_f64;
    use fpcore::parse_core;

    /// Compiles and runs a core, checking the machine agrees with the
    /// reference FPCore evaluator on every supplied input.
    fn check_against_reference(src: &str, inputs: &[Vec<f64>]) {
        let core = parse_core(src).expect("parse");
        let program = compile_core(&core, CompileOptions::default()).expect("compile");
        program.validate().expect("valid program");
        for input in inputs {
            let expected = eval_f64(&core, input).expect("reference eval");
            let got = Machine::new(&program)
                .run(input)
                .expect("machine run")
                .outputs[0];
            if expected.is_nan() {
                assert!(got.is_nan(), "{src} on {input:?}: {got} vs NaN");
            } else {
                assert_eq!(got, expected, "{src} on {input:?}");
            }
        }
    }

    #[test]
    fn straight_line_arithmetic_matches_reference() {
        check_against_reference(
            "(FPCore (x y) (- (sqrt (+ (* x x) (* y y))) x))",
            &[vec![3.0, 4.0], vec![1e-9, 2e-9], vec![0.0, 0.0]],
        );
    }

    #[test]
    fn conditionals_match_reference() {
        check_against_reference(
            "(FPCore (x) (if (< x 0) (- x) (sqrt x)))",
            &[vec![-4.0], vec![4.0], vec![0.0]],
        );
    }

    #[test]
    fn nested_conditionals_and_boolean_operators() {
        check_against_reference(
            "(FPCore (x y) (if (and (< 0 x) (or (< y 0) (< 1 y))) (/ x y) (* x y)))",
            &[
                vec![1.0, -2.0],
                vec![1.0, 2.0],
                vec![1.0, 0.5],
                vec![-1.0, 5.0],
            ],
        );
    }

    #[test]
    fn let_bindings_match_reference() {
        check_against_reference(
            "(FPCore (x) (let ((z (/ 1 (- x 113)))) (- (+ z PI) z)))",
            &[vec![113.5], vec![200.0], vec![0.0]],
        );
        check_against_reference(
            "(FPCore (a) (let* ((b (+ a 1)) (c (* b b))) (- c b)))",
            &[vec![2.0], vec![-7.5]],
        );
    }

    #[test]
    fn while_loops_match_reference() {
        check_against_reference(
            "(FPCore (n) (while (<= i n) ((i 1 (+ i 1)) (s 0 (+ s (/ 1 i)))) s))",
            &[vec![1.0], vec![10.0], vec![0.0]],
        );
        // The PID-controller-style loop with a float counter.
        check_against_reference(
            "(FPCore (n) (while (< t n) ((t 0 (+ t 0.2)) (c 0 (+ c 1))) c))",
            &[vec![10.0], vec![1.0]],
        );
    }

    #[test]
    fn chained_comparisons() {
        check_against_reference(
            "(FPCore (x) (if (< 0 x 1) 1 0))",
            &[vec![0.5], vec![2.0], vec![-1.0], vec![0.0]],
        );
    }

    #[test]
    fn not_and_nan_semantics() {
        // NaN makes (< x 0) false and (not (< x 0)) true.
        check_against_reference(
            "(FPCore (x) (if (not (< x 0)) 1 2))",
            &[vec![f64::NAN], vec![-1.0], vec![1.0]],
        );
    }

    #[test]
    fn unbound_variable_is_a_compile_error() {
        let core = parse_core("(FPCore (x) (+ x ghost))").unwrap();
        assert_eq!(
            compile_core(&core, CompileOptions::default()).unwrap_err(),
            CompileError::UnboundVariable("ghost".to_string())
        );
    }

    #[test]
    fn branches_are_spots_in_compiled_code() {
        let core = parse_core("(FPCore (x) (if (< x 1) x (* x 2)))").unwrap();
        let program = compile_core(&core, CompileOptions::default()).unwrap();
        assert!(program.statements.iter().any(Statement::is_spot));
    }

    #[test]
    fn lowering_library_calls_grows_the_program() {
        let core = parse_core("(FPCore (x) (- (exp x) 1))").unwrap();
        let wrapped = compile_core(&core, CompileOptions::default()).unwrap();
        let lowered = compile_core(
            &core,
            CompileOptions {
                lower_library_calls: true,
                source_file: None,
            },
        )
        .unwrap();
        assert!(
            lowered.compute_count() > wrapped.compute_count() + 5,
            "lowered {} vs wrapped {}",
            lowered.compute_count(),
            wrapped.compute_count()
        );
    }

    #[test]
    fn boolean_in_numeric_position_is_rejected() {
        let core = parse_core("(FPCore (x) (+ x TRUE))").unwrap();
        assert_eq!(
            compile_core(&core, CompileOptions::default()).unwrap_err(),
            CompileError::BooleanInNumericPosition
        );
    }

    #[test]
    fn lowered_statements_carry_the_call_site_location() {
        // `exp`'s argument is a deep subexpression, so by the time the
        // lowering runs, the line cursor has moved well past the call site.
        // Every statement the lowering emits must still carry the `exp`
        // call's own line — reports and static lints point at user code,
        // not at lowered libm internals.
        let src = "(FPCore (x y) (exp (+ x (* y (+ y 1)))))";
        let core = parse_core(src).unwrap();
        let wrapped = compile_core(&core, CompileOptions::default()).unwrap();
        let lowered = compile_core(
            &core,
            CompileOptions {
                lower_library_calls: true,
                source_file: None,
            },
        )
        .unwrap();
        // `exp` is the body's outermost expression, so its call site is the
        // first line the cursor assigns (the cursor starts at 1 and steps on
        // every expression entry).
        let call_line = 2;
        // The argument prefix is identical in both programs; it ends where
        // the wrapped program's single Exp compute sits. Everything past it
        // in the lowered program belongs to the lowering.
        let prefix_len = wrapped
            .statements
            .iter()
            .position(|stmt| matches!(stmt, Statement::Compute { op, .. } if *op == RealOp::Exp))
            .expect("exp compute present");
        let arg_lines: Vec<u32> = (0..prefix_len)
            .map(|pc| lowered.location(pc).line)
            .collect();
        assert!(
            arg_lines.iter().any(|&line| line > call_line),
            "argument subexpressions advance the cursor past the call: {arg_lines:?}"
        );
        let lowered_body: Vec<usize> = (prefix_len..lowered.statements.len())
            .filter(|&pc| {
                matches!(
                    lowered.statements[pc],
                    Statement::Compute { .. } | Statement::ConstF { .. }
                )
            })
            .collect();
        assert!(lowered_body.len() > 10, "lowering expands the call");
        for pc in lowered_body {
            assert_eq!(
                lowered.location(pc).line,
                call_line,
                "pc {pc} ({:?}) should carry the exp call site",
                lowered.statements[pc]
            );
        }
    }
}
