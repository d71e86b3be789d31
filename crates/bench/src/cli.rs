//! The command-line front end every Penny binary shares: one flag
//! reader, one usage error, the value parsers several tools share, and
//! one stdout writer that stops quietly when its reader goes away.
//!
//! * **Flags.** Every single-valued flag is `--name VALUE` or
//!   `--name=VALUE`; a switch such as `--json` takes no value, so
//!   `--json=1` is an error; an argument not starting with `-` is a
//!   positional. A tool matches the names [`Args`] yields, reads
//!   values with [`Args::value`] or a typed reader, and rejects every
//!   other argument with [`Args::unknown`].
//! * **Usage errors.** [`die`] prints `<tool>: <message>` on stderr and
//!   exits with status 2. Arguments are read before any work, so a
//!   usage error leaves stdout empty.
//! * **Exit statuses.** 0 success; 1 a verdict (failed sites, lint
//!   errors, a `penny` parse, compile or run failure); 2 a usage or I/O
//!   error; 3 an incomplete result (`penny-eval`, `penny-herd`).
//! * **Stdout.** [`out!`](crate::out) and [`outln!`](crate::outln)
//!   print like `print!` and `println!`, except that when the pipe
//!   closes (`penny-eval all | head -1`) the process ends at once,
//!   quietly, with status 0.

use std::fmt::{self, Display};
use std::io::{self, Write as _};
use std::str::FromStr;
use std::sync::OnceLock;

use crate::runner::SchemeId;

/// The running tool's name: the prefix of every message [`die`]
/// prints, set by [`Args::from_env`].
static TOOL: OnceLock<&'static str> = OnceLock::new();

/// Prints `<tool>: <msg>` on stderr and exits with status 2.
pub fn die(msg: impl Display) -> ! {
    let tool = TOOL.get().copied().unwrap_or("penny");
    // A closed stderr has no one left to tell.
    let _ = writeln!(io::stderr(), "{tool}: {msg}");
    std::process::exit(2);
}

/// Writes to stdout: the body of [`out!`](crate::out) and
/// [`outln!`](crate::outln). A closed pipe ends the process with status
/// 0; any other write error is fatal (status 2).
#[doc(hidden)]
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        die(format_args!("writing stdout: {e}"));
    }
}

/// `print!` through [`cli::write_stdout`](crate::cli::write_stdout):
/// a closed stdout ends the process quietly with status 0.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::write_stdout`](crate::cli::write_stdout):
/// a closed stdout ends the process quietly with status 0.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A process's arguments, read flag by flag. Every error is a usage
/// error ([`die`]).
pub struct Args {
    rest: std::vec::IntoIter<String>,
    /// The argument yielded last.
    current: String,
    /// Its `=VALUE` part, until [`Args::value`] takes it.
    inline: Option<String>,
}

impl Args {
    /// This process's arguments; `tool` prefixes every message [`die`]
    /// prints from now on.
    pub fn from_env(tool: &'static str) -> Args {
        let _ = TOOL.set(tool);
        Args::new(std::env::args().skip(1))
    }

    fn new(args: impl IntoIterator<Item = String>) -> Args {
        let rest = args.into_iter().collect::<Vec<_>>().into_iter();
        Args { rest, current: String::new(), inline: None }
    }

    /// Rejects the argument [`Args`] yielded last: an unknown
    /// flag, or a positional where the tool takes none.
    pub fn unknown(&self) -> ! {
        if self.current.starts_with('-') {
            die(format_args!("unknown flag `{}`", self.current));
        }
        die(format_args!("unexpected argument `{}`", self.current))
    }

    /// The current flag's value: its `=VALUE` part, else the next
    /// argument.
    pub fn value(&mut self) -> String {
        match self.inline.take().or_else(|| self.rest.next()) {
            Some(v) => v,
            None => die(format_args!("{} needs a value", self.current)),
        }
    }

    /// The current flag's value through `parse`; its error reads
    /// `<flag>: <error>`.
    pub fn parse<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let v = self.value();
        parse(&v).unwrap_or_else(|e| die(format_args!("{}: {e}", self.current)))
    }

    /// The current flag's value as an unsigned integer.
    pub fn integer<T: FromStr>(&mut self) -> T {
        let v = self.value();
        v.parse().unwrap_or_else(|_| {
            die(format_args!("{} needs a non-negative integer", self.current))
        })
    }

    /// The current flag's value as an integer above zero (`--jobs`,
    /// `--shards`).
    pub fn positive<T: FromStr + Default + PartialOrd>(&mut self) -> T {
        let v = self.value();
        positive(&v).unwrap_or_else(|| {
            die(format_args!("{} needs a positive integer", self.current))
        })
    }

    /// A sweep budget, `N` (above zero) or `all` (`u64::MAX`: every
    /// site of the space).
    pub fn budget(&mut self) -> u64 {
        let v = self.value();
        budget(&v).unwrap_or_else(|| {
            die(format_args!("{} needs a positive integer or `all`", self.current))
        })
    }

    /// A comma-separated list of registered workload abbreviations.
    pub fn workloads(&mut self) -> Vec<String> {
        self.parse(|v| list(v, workload))
    }

    /// One scheme token ([`SchemeId::from_token`]).
    pub fn scheme(&mut self) -> SchemeId {
        self.parse(scheme)
    }

    /// A comma-separated list of scheme tokens.
    pub fn schemes(&mut self) -> Vec<SchemeId> {
        self.parse(|v| list(v, scheme))
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument: a flag's name (the `=VALUE` of `--name=VALUE`
    /// is held for [`Args::value`]) or a positional. A held value that
    /// nothing took, as in `--json=1`, is a usage error.
    fn next(&mut self) -> Option<String> {
        if self.inline.is_some() {
            die(format_args!("{} takes no value", self.current));
        }
        let arg = self.rest.next()?;
        self.current = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => {
                self.inline = Some(value.to_string());
                name.to_string()
            }
            _ => arg,
        };
        Some(self.current.clone())
    }
}

fn positive<T: FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

fn budget(v: &str) -> Option<u64> {
    if v == "all" {
        Some(u64::MAX)
    } else {
        positive(v)
    }
}

fn workload(abbr: &str) -> Result<String, String> {
    match penny_workloads::by_abbr(abbr) {
        Some(_) => Ok(abbr.to_string()),
        None => Err(format!("unknown workload {abbr:?}")),
    }
}

/// A scheme token; the error names every accepted one.
fn scheme(token: &str) -> Result<SchemeId, String> {
    SchemeId::from_token(token).ok_or_else(|| {
        let tokens = SchemeId::ALL.map(SchemeId::token).join(", ");
        format!("unknown scheme {token:?} (tokens: {tokens})")
    })
}

/// The items of a comma-separated list, blanks dropped, each through
/// `item`.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_flag_forms_read_the_same_value() {
        for argv in [&["--jobs", "3", "fig9"][..], &["--jobs=3", "fig9"]] {
            let mut a = args(argv);
            assert_eq!(a.next().as_deref(), Some("--jobs"));
            assert_eq!(a.positive::<usize>(), 3);
            assert_eq!(a.next().as_deref(), Some("fig9"));
            assert_eq!(a.next(), None);
        }
        // Only a flag splits at `=`; a value keeps its own `=`.
        let mut a = args(&["k=v", "--out=a=b"]);
        assert_eq!(a.next().as_deref(), Some("k=v"));
        assert_eq!(a.next().as_deref(), Some("--out"));
        assert_eq!(a.value(), "a=b");
        // A flag's value is the next argument, whatever it looks like.
        let mut a = args(&["--eval", "--jobs"]);
        assert_eq!(a.next().as_deref(), Some("--eval"));
        assert_eq!(a.value(), "--jobs");
        assert_eq!(a.next(), None);
    }

    #[test]
    fn shared_value_parsers() {
        assert_eq!(positive::<usize>("4"), Some(4));
        for bad in ["0", "-1", "x", ""] {
            assert_eq!(positive::<u32>(bad), None, "{bad:?}");
        }
        assert_eq!(budget("all"), Some(u64::MAX));
        assert_eq!(budget("64"), Some(64));
        assert_eq!(budget("0"), None);
        assert_eq!(list(" MT, ,SGEMM,", workload), Ok(vec!["MT".into(), "SGEMM".into()]));
        assert_eq!(list("MT,NOPE", workload), Err("unknown workload \"NOPE\"".into()));
        assert_eq!(list("Penny,IGpu", scheme), Ok(vec![SchemeId::Penny, SchemeId::IGpu]));
        assert_eq!(
            scheme("penny"),
            Err("unknown scheme \"penny\" (tokens: Baseline, IGpu, BoltGlobal, BoltAuto, Penny)"
                .into())
        );
    }
}
