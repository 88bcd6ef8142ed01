//! Command-line plumbing shared by the `dgrid` and `repro` binaries.
//!
//! A command declares each of its flags once, as a [`Flag`] over its own
//! options struct ([`Options::flags`]); [`options!`] declares a struct, its
//! defaults and the flags that read into its fields in one table. [`parse`]
//! reads the arguments against the flags and [`usage_line`] prints the
//! usage line they imply, so the two cannot drift. A command takes exactly
//! the flags it declares, and a flag's [`Rule`] says which other flags it
//! needs or excludes. Every refusal goes to stderr with exit code 2, never
//! a panic, and its first line names the flag at fault.

use std::fmt::Display;
use std::fs::File;
use std::str::FromStr;

/// What a flag's value parses into, or the refusal that follows the flag's
/// name, as [`arg`] words it.
pub type Parsed<T> = Result<T, String>;

/// One flag of a command.
pub struct Flag<O> {
    /// The flag as typed, e.g. `--nodes`.
    name: &'static str,
    /// The value's placeholder in the usage line; empty for a switch.
    value: &'static str,
    rule: Rule,
    set: Box<Setter<O>>,
}

/// Reads a flag's value into the options.
type Setter<O> = dyn Fn(&mut O, &str) -> Parsed<()>;

/// How a flag stands to the command's other flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Given or not, as the user likes.
    Free,
    /// The command cannot run without it.
    Required,
    /// It means nothing unless this other flag is given too.
    Needs(&'static str),
    /// It cannot be combined with this other flag.
    Excludes(&'static str),
}

impl<O: 'static> Flag<O> {
    /// A flag whose value `set` reads into the options; a switch, which
    /// takes no value, when `value` is empty.
    pub fn new(
        name: &'static str,
        value: &'static str,
        set: impl Fn(&mut O, &str) -> Parsed<()> + 'static,
    ) -> Self {
        Flag {
            name,
            value,
            rule: Rule::Free,
            set: Box::new(set),
        }
    }

    /// This flag under `rule`.
    pub fn with(self, rule: Rule) -> Self {
        Flag { rule, ..self }
    }
}

/// `flags` on options `P` that hold their options at `part`.
pub fn lift<O: 'static, P: 'static>(
    flags: Vec<Flag<O>>,
    part: fn(&mut P) -> &mut O,
) -> Vec<Flag<P>> {
    let lift = |f: Flag<O>| {
        let set = f.set;
        Flag::new(f.name, f.value, move |p: &mut P, v| set(part(p), v)).with(f.rule)
    };
    flags.into_iter().map(lift).collect()
}

/// `*field = parse(val)`, for the setters [`options!`] writes.
#[doc(hidden)]
pub fn set<T>(field: &mut T, parse: impl Fn(&str) -> Parsed<T>, val: &str) -> Parsed<()> {
    *field = parse(val)?;
    Ok(())
}

/// Declares an options struct, its defaults, and the flags that read
/// straight into its fields, one line per field:
///
/// ```text
/// field: Type = default, "--flag", "VALUE", parser => Needs("--other");
/// ```
///
/// A field no flag sets on its own ends after its default; a [`Rule`]
/// other than [`Rule::Free`] follows `=>`, named without its type. Those
/// flags, in declaration order, are the struct's `fields()`. A command's
/// struct names the command after `as`, and [`Options`] is implemented
/// for it with `fields()` and whatever items follow the struct; a struct
/// without `as` is a part other options [`lift`] its fields into.
#[doc(hidden)]
#[macro_export]
macro_rules! __cli_options {
    (@impl $name:ident { $fields:expr }) => {
        impl $name {
            /// The flags that read straight into a field.
            fn fields() -> Vec<$crate::cli::Flag<Self>> {
                $fields
            }
        }
    };
    (@impl $name:ident $command:literal { $fields:expr } $($item:item)*) => {
        impl $crate::cli::Options for $name {
            const COMMAND: &'static str = $command;

            fn fields() -> Vec<$crate::cli::Flag<Self>> {
                $fields
            }

            $($item)*
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(as $command:literal)? {
            $(
                $(#[$field_meta:meta])*
                $field:ident: $ty:ty = $default:expr
                $(, $flag:expr, $value:expr, $parse:expr $(=> $rule:ident$(($other:expr))?)?)?;
            )*
        }
        $($item:item)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field: $ty,)*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)* }
            }
        }

        $crate::cli::options!(@impl $name $($command)? {
            vec![$($(
                $crate::cli::Flag::new($flag, $value, |o: &mut Self, v| {
                    $crate::cli::set(&mut o.$field, $parse, v)
                })$(.with($crate::cli::Rule::$rule$(($other))?))?,
            )?)*]
        } $($item)*);
    };
}

pub use __cli_options as options;

/// The options of one command, and the flags that fill them in.
pub trait Options: Default + 'static {
    /// How the command is invoked, e.g. `dgrid run`.
    const COMMAND: &'static str;

    /// The flags that read straight into a field, from [`options!`].
    fn fields() -> Vec<Flag<Self>>;

    /// The command's flags, in usage order.
    fn flags() -> Vec<Flag<Self>> {
        Self::fields()
    }

    /// Lines printed under the usage line: positional arguments, or the
    /// labels a flag accepts. Each starts with a newline.
    fn notes() -> String {
        String::new()
    }

    /// A check across flags once all are read. `Err` is the refusal,
    /// starting with the name of the flag at fault.
    fn finish(&mut self) -> Parsed<()> {
        Ok(())
    }
}

/// The usage line of `O`'s command, generated from its flag table.
pub fn usage_line<O: Options>() -> String {
    let mut line = format!("usage: {}", O::COMMAND);
    for flag in O::flags() {
        let spelled = match flag.value {
            "" => flag.name.to_string(),
            value => format!("{} {value}", flag.name),
        };
        line += &match flag.rule {
            Rule::Required => format!(" {spelled}"),
            _ => format!(" [{spelled}]"),
        };
    }
    line
}

/// Whether `O`'s command takes `flag`.
pub fn takes<O: Options>(flag: &str) -> bool {
    O::flags().iter().any(|f| f.name == flag)
}

/// A refusal of `O`'s arguments: `msg`, then the usage line and notes;
/// exit code 2.
fn refuse<O: Options>(msg: impl Display) -> ! {
    die(format_args!("{msg}\n{}{}", usage_line::<O>(), O::notes()))
}

/// Read `args` into `O`'s options. A flag outside `O`'s table is refused
/// as unknown, or, when `elsewhere` says another command of the program
/// takes it, as one line naming it and this command.
pub fn parse<O: Options>(args: &[String], elsewhere: impl Fn(&str) -> bool) -> O {
    let (flags, command) = (O::flags(), O::COMMAND);
    let mut opts = O::default();
    let mut given: Vec<&Flag<O>> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            if elsewhere(arg) {
                die(format_args!("{command} does not take {arg}"));
            }
            refuse::<O>(format_args!("unknown flag {arg}"));
        };
        let clash = |g: &&&Flag<O>| {
            g.rule == Rule::Excludes(flag.name) || flag.rule == Rule::Excludes(g.name)
        };
        if let Some(earlier) = given.iter().find(clash).map(|g| g.name) {
            die(format_args!("{command} takes {earlier} or {arg}, not both"));
        }
        let val = match flag.value {
            "" => "",
            _ => args.next().map_or_else(
                || refuse::<O>(format_args!("{arg}: value missing")),
                String::as_str,
            ),
        };
        (flag.set)(&mut opts, val).unwrap_or_else(|e| refuse::<O>(format_args!("{arg}: {e}")));
        given.push(flag);
    }
    let named = |name| given.iter().any(|g| g.name == name);
    for f in &flags {
        let (name, value, given) = (f.name, f.value, named(f.name));
        match f.rule {
            Rule::Required if !given => {
                refuse::<O>(format_args!("{command} requires {name} {value}"))
            }
            Rule::Needs(other) if given && !named(other) => {
                die(format_args!("{command} takes {name} only with {other}"))
            }
            _ => {}
        }
    }
    opts.finish().unwrap_or_else(|e| refuse::<O>(e));
    opts
}

/// `val` parsed, or the refusal "`val` is not `want`".
pub fn arg<T: FromStr>(val: &str, want: &str) -> Parsed<T> {
    val.parse().map_err(|_| format!("{val:?} is not {want}"))
}

/// A parser of the values `T` spells, refusing others as not `want`.
pub fn parsed<T: FromStr>(want: &'static str) -> impl Fn(&str) -> Parsed<T> {
    move |val| arg(val, want)
}

/// A count that must be at least 1.
pub fn positive(val: &str) -> Parsed<usize> {
    match arg(val, "a number")? {
        0 => Err(format!("{val:?} is not at least 1")),
        n => Ok(n),
    }
}

/// A parser of the numbers `ok` accepts; `want` completes "is not ..."
/// for the others.
pub fn number(want: &'static str, ok: fn(f64) -> bool) -> impl Fn(&str) -> Parsed<f64> {
    move |val| match arg(val, "a number")? {
        x if ok(x) => Ok(x),
        _ => Err(format!("{val:?} is not {want}")),
    }
}

/// The value as it was typed.
pub fn text(val: &str) -> Parsed<String> {
    Ok(val.to_string())
}

/// `parse`, for a field that stays unset unless its flag is given.
pub fn some<T>(parse: impl Fn(&str) -> Parsed<T>) -> impl Fn(&str) -> Parsed<Option<T>> {
    move |val| parse(val).map(Some)
}

/// One line on stderr and exit code 2: the invocation cannot be carried out.
pub fn die(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// An unusable file is one line and exit code 2, never a panic.
pub trait OrExit<T> {
    /// The value, or `cannot <what> <path>: <why>` and exit code 2.
    fn or_exit(self, path: impl Display, what: &str) -> T;
}

impl<T, E: Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, path: impl Display, what: &str) -> T {
        self.unwrap_or_else(|e| die(format_args!("cannot {what} {path}: {e}")))
    }
}

/// `path` created for writing, or `cannot create <path>: <why>` and exit
/// code 2. Commands create their output files before they run, so a bad
/// path costs no simulation.
pub fn create(path: &str) -> File {
    File::create(path).or_exit(path, "create")
}

/// The root seed every random stream derives from, unless `--seed` gives
/// another.
pub const DEFAULT_SEED: u64 = 42;

/// Run `f` on a work-stealing pool of `threads` workers, when `--threads`
/// gave a count; else on `DGRID_THREADS` or every core.
pub fn install<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        Some(t) => rayon::Pool::install(t, f),
        None => f(),
    }
}
