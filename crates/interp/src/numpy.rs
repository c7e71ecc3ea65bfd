//! The numpy-flavored builtin layer: `np.*` attributes and functions.

use crate::error::{InterpError, Result};
use crate::eval::Args;
use crate::pandas::{expect_float, expect_series};
use crate::value::{RtValue, SeriesVal};
use lucid_frame::ops;
use lucid_frame::Value;

/// `np.<attr>` that is not a call (`np.nan`).
pub(crate) fn numpy_attr(attr: &str) -> Result<RtValue> {
    match attr {
        "nan" | "NaN" => Ok(RtValue::Scalar(Value::Null)),
        "inf" => Ok(RtValue::Scalar(Value::Float(f64::INFINITY))),
        "pi" => Ok(RtValue::Scalar(Value::Float(std::f64::consts::PI))),
        "e" => Ok(RtValue::Scalar(Value::Float(std::f64::consts::E))),
        other => Err(InterpError::AttributeError {
            receiver: "numpy".to_string(),
            attr: other.to_string(),
        }),
    }
}

/// `np.<fn>(...)` dispatch.
pub(crate) fn call_numpy_fn(name: &str, args: Args) -> Result<RtValue> {
    // Unary element-wise math on series or scalar.
    let unary: Option<fn(f64) -> f64> = match name {
        "log1p" => Some(f64::ln_1p),
        "log" => Some(f64::ln),
        "sqrt" => Some(f64::sqrt),
        "exp" => Some(f64::exp),
        "abs" => Some(f64::abs),
        "floor" => Some(f64::floor),
        "ceil" => Some(f64::ceil),
        _ => None,
    };
    if let Some(f) = unary {
        let arg = args.require(0, "x")?;
        return match arg {
            RtValue::Series(s) => Ok(RtValue::Series(SeriesVal {
                name: s.name.clone(),
                col: ops::map_f64(&s.col, name, f)?.into(),
            })),
            RtValue::Scalar(_) => Ok(RtValue::Scalar(Value::Float(f(expect_float(arg)?)))),
            other => Err(InterpError::TypeError(format!(
                "np.{name} expects a Series or number, got {}",
                other.type_name()
            ))),
        };
    }
    match name {
        "where" => {
            let RtValue::Mask(mask) = args.require(0, "condition")? else {
                return Err(InterpError::TypeError(
                    "np.where condition must be a boolean mask".to_string(),
                ));
            };
            let if_true = args
                .require(1, "x")?
                .as_scalar()
                .cloned()
                .ok_or_else(|| InterpError::TypeError("np.where branches must be scalars".into()))?;
            let if_false = args
                .require(2, "y")?
                .as_scalar()
                .cloned()
                .ok_or_else(|| InterpError::TypeError("np.where branches must be scalars".into()))?;
            Ok(RtValue::Series(SeriesVal::anon(ops::where_scalar(
                mask, &if_true, &if_false,
            ))))
        }
        "mean" => {
            let s = expect_series(args.require(0, "a")?)?;
            Ok(RtValue::Scalar(Value::Float(s.col.mean()?)))
        }
        "median" => {
            let s = expect_series(args.require(0, "a")?)?;
            Ok(RtValue::Scalar(Value::Float(s.col.median()?)))
        }
        other => Err(InterpError::AttributeError {
            receiver: "numpy".to_string(),
            attr: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;
    use lucid_frame::csv::read_csv_str;
    use lucid_pyast::parse_module;

    fn run(src: &str) -> crate::env::ExecOutcome {
        let mut i = Interpreter::new();
        i.register_table("t.csv", read_csv_str("a,b\n1,x\n4,y\n9,x\n").unwrap());
        i.run(&parse_module(src).unwrap()).unwrap()
    }

    #[test]
    fn nan_is_null() {
        let out = run("import numpy as np\nx = np.nan\n");
        assert!(matches!(
            out.get("x"),
            Some(RtValue::Scalar(Value::Null))
        ));
    }

    #[test]
    fn sqrt_on_series_and_scalar() {
        let out = run(
            "import pandas as pd\nimport numpy as np\ndf = pd.read_csv('t.csv')\ndf['r'] = np.sqrt(df['a'])\ns = np.sqrt(16)\n",
        );
        let frame = out.output_frame().unwrap();
        assert_eq!(
            frame.column("r").unwrap().get(2).unwrap(),
            Value::Float(3.0)
        );
        assert!(matches!(
            out.get("s"),
            Some(RtValue::Scalar(Value::Float(v))) if *v == 4.0
        ));
    }

    #[test]
    fn where_builds_column() {
        let out = run(
            "import pandas as pd\nimport numpy as np\ndf = pd.read_csv('t.csv')\ndf['big'] = np.where(df['a'] > 3, 1, 0)\n",
        );
        let col = out.output_frame().unwrap().column("big").unwrap();
        assert_eq!(
            lucid_frame::naive::naive_values(col),
            vec![Value::Int(0), Value::Int(1), Value::Int(1)]
        );
    }

    #[test]
    fn unknown_numpy_attr_errors() {
        let mut i = Interpreter::new();
        i.register_table("t.csv", read_csv_str("a\n1\n").unwrap());
        let r = i.run(&parse_module("import numpy as np\nx = np.bogus\n").unwrap());
        assert!(matches!(r, Err(InterpError::AttributeError { .. })));
    }
}
