//! # heapdrag-lang
//!
//! A typed mini-Java front end for the heapdrag VM: classes with fields
//! and (virtually dispatched) methods, single inheritance, typed arrays,
//! statics with visibilities, `new` with `init` constructors, `if`/
//! `while`/`return`/`print` — compiled to verified heapdrag bytecode with
//! source-line site labels, so drag reports point back at source lines.
//!
//! ```
//! use heapdrag_lang::compile_source;
//! use heapdrag_vm::interp::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile_source(
//!     r#"
//!     class Point {
//!         field x: int;
//!         field y: int;
//!         def init(a: int, b: int) { this.x = a; this.y = b; }
//!         def norm(): int { return this.x * this.x + this.y * this.y; }
//!     }
//!     def main(input: int[]) {
//!         var p: Point = new Point(3, 4);
//!         print p.norm();
//!     }
//!     "#,
//! )?;
//! let outcome = Vm::new(&program, VmConfig::default()).run(&[])?;
//! assert_eq!(outcome.output, vec![25]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use error::LangError;

use heapdrag_vm::program::Program;

/// Compiles source text to a linked, verifier-clean VM program.
///
/// # Errors
///
/// Returns the first lexing, parsing, type, or code-generation error.
pub fn compile_source(source: &str) -> Result<Program, LangError> {
    let tokens = lexer::lex(source)?;
    let ast = parser::parse(&tokens)?;
    codegen::compile(&ast)
}
