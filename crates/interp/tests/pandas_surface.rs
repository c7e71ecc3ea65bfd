//! End-to-end coverage of the pandas-flavored API surface the script
//! corpus exercises — every template family the corpus generator emits
//! must execute here.

use lucid_frame::csv::read_csv_str;
use lucid_frame::Value;
use lucid_interp::{Interpreter, RtValue};
use lucid_pyast::parse_module;

const CSV: &str = "\
Age,Fare,Sex,Embarked,Survived
22,7.25,male,S,0
38,71.28,female,C,1
26,7.92,female,S,1
35,53.1,female,S,1
35,8.05,male,,0
,8.46,male,Q,0
54,51.86,male,S,0
2,21.07,male,S,1
27,11.13,female,S,1
,30.07,female,C,1
";

fn interp() -> Interpreter {
    let mut i = Interpreter::new();
    i.register_table("train.csv", read_csv_str(CSV).unwrap());
    i
}

fn run(src: &str) -> lucid_interp::env::ExecOutcome {
    interp()
        .run(&parse_module(src).unwrap())
        .unwrap_or_else(|e| panic!("script failed: {e}\n{src}"))
}

fn run_err(src: &str) -> lucid_interp::InterpError {
    interp()
        .run(&parse_module(src).unwrap())
        .err()
        .unwrap_or_else(|| panic!("script unexpectedly succeeded:\n{src}"))
}

const PRELUDE: &str = "import pandas as pd\nimport numpy as np\ndf = pd.read_csv('train.csv')\n";

#[test]
fn fillna_with_mean_median_mode() {
    for stat in ["mean", "median"] {
        let out = run(&format!("{PRELUDE}df = df.fillna(df.{stat}())\n"));
        assert_eq!(out.output_frame().unwrap().column("Age").unwrap().null_count(), 0);
        // String column untouched by numeric stats.
        assert_eq!(out.output_frame().unwrap().column("Embarked").unwrap().null_count(), 1);
    }
    let out = run(&format!("{PRELUDE}df = df.fillna(df.mode().iloc[0])\n"));
    assert_eq!(out.output_frame().unwrap().total_null_count(), 0);
}

#[test]
fn series_fillna_variants() {
    let out = run(&format!(
        "{PRELUDE}df['Age'] = df['Age'].fillna(df['Age'].mean())\ndf['Embarked'] = df['Embarked'].fillna('S')\n"
    ));
    let f = out.output_frame().unwrap();
    assert_eq!(f.column("Age").unwrap().null_count(), 0);
    assert_eq!(f.column("Embarked").unwrap().null_count(), 0);
    // mode()[0] idiom.
    let out = run(&format!(
        "{PRELUDE}df['Embarked'] = df['Embarked'].fillna(df['Embarked'].mode()[0])\n"
    ));
    assert_eq!(
        out.output_frame().unwrap().column("Embarked").unwrap().get(4).unwrap(),
        Value::Str("S".into())
    );
}

#[test]
fn dropna_variants() {
    assert_eq!(run(&format!("{PRELUDE}df = df.dropna()\n")).output_frame().unwrap().n_rows(), 7);
    assert_eq!(
        run(&format!("{PRELUDE}df = df.dropna(subset=['Age'])\n")).output_frame().unwrap().n_rows(),
        8
    );
    let out = run(&format!("{PRELUDE}df = df.dropna(axis=1)\n"));
    assert!(!out.output_frame().unwrap().has_column("Age"));
}

#[test]
fn filtering_with_masks_and_between() {
    let out = run(&format!("{PRELUDE}df = df[df['Age'].between(18, 40)]\n"));
    assert_eq!(out.output_frame().unwrap().n_rows(), 6);
    let out = run(&format!(
        "{PRELUDE}df = df[(df['Age'] > 20) & (df['Sex'] == 'female')]\n"
    ));
    assert_eq!(out.output_frame().unwrap().n_rows(), 4);
    let out = run(&format!("{PRELUDE}df = df[~(df['Fare'] > 50)]\n"));
    assert_eq!(out.output_frame().unwrap().n_rows(), 7);
    let out = run(&format!("{PRELUDE}df = df[df['Embarked'].isin(['S', 'Q'])]\n"));
    assert_eq!(out.output_frame().unwrap().n_rows(), 7);
}

#[test]
fn quantile_outlier_filter() {
    let out = run(&format!(
        "{PRELUDE}df = df[df['Fare'] < df['Fare'].quantile(0.99)]\n"
    ));
    assert_eq!(out.output_frame().unwrap().n_rows(), 9);
}

#[test]
fn get_dummies_and_drop() {
    let out = run(&format!("{PRELUDE}df = pd.get_dummies(df)\n"));
    let f = out.output_frame().unwrap();
    assert!(f.has_column("Sex_male"));
    assert!(f.has_column("Embarked_S"));
    let out = run(&format!(
        "{PRELUDE}df = pd.get_dummies(df, columns=['Sex'], drop_first=True)\n"
    ));
    let f = out.output_frame().unwrap();
    assert!(f.has_column("Sex_female"));
    assert!(!f.has_column("Sex_male"));
    let out = run(&format!("{PRELUDE}df = df.drop(['Fare', 'Embarked'], axis=1)\n"));
    assert_eq!(out.output_frame().unwrap().n_cols(), 3);
    let out = run(&format!("{PRELUDE}df = df.drop(columns=['Fare'])\n"));
    assert!(!out.output_frame().unwrap().has_column("Fare"));
}

#[test]
fn string_normalization() {
    let out = run(&format!(
        "{PRELUDE}df['Sex'] = df['Sex'].str.upper()\ndf['Embarked'] = df['Embarked'].str.lower()\n"
    ));
    let f = out.output_frame().unwrap();
    assert_eq!(f.column("Sex").unwrap().get(0).unwrap(), Value::Str("MALE".into()));
    assert_eq!(f.column("Embarked").unwrap().get(0).unwrap(), Value::Str("s".into()));
}

#[test]
fn map_and_replace_encoding() {
    let out = run(&format!(
        "{PRELUDE}df['Sex'] = df['Sex'].map({{'male': 0, 'female': 1}})\n"
    ));
    assert_eq!(
        out.output_frame().unwrap().column("Sex").unwrap().get(1).unwrap(),
        Value::Int(1)
    );
    let out = run(&format!(
        "{PRELUDE}df['Embarked'] = df['Embarked'].replace({{'S': 'Southampton'}})\n"
    ));
    assert_eq!(
        out.output_frame().unwrap().column("Embarked").unwrap().get(0).unwrap(),
        Value::Str("Southampton".into())
    );
}

#[test]
fn feature_engineering_ops() {
    let out = run(&format!(
        "{PRELUDE}df['FareLog'] = np.log1p(df['Fare'])\ndf['AgeClip'] = df['Age'].clip(0, 30)\ndf['FamilyBig'] = np.where(df['Fare'] > 30, 1, 0)\ndf['AgeRound'] = df['Fare'].round(1)\n"
    ));
    let f = out.output_frame().unwrap();
    assert!(f.has_column("FareLog"));
    assert_eq!(f.column("AgeClip").unwrap().max().unwrap(), Value::Int(30));
    assert_eq!(f.column("AgeRound").unwrap().get(0).unwrap(), Value::Float(7.3));
}

#[test]
fn target_separation_and_rename() {
    let out = run(&format!(
        "{PRELUDE}y = df['Survived']\nX = df.drop('Survived', axis=1)\ndf2 = df.rename(columns={{'Fare': 'Price'}})\n"
    ));
    match out.get("X") {
        Some(RtValue::Frame(f)) => assert!(!f.df.has_column("Survived")),
        other => panic!("unexpected {other:?}"),
    }
    match out.get("df2") {
        Some(RtValue::Frame(f)) => assert!(f.df.has_column("Price")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn groupby_aggregation() {
    let out = run(&format!("{PRELUDE}agg = df.groupby('Sex')['Fare'].mean()\n"));
    match out.get("agg") {
        Some(RtValue::Frame(f)) => {
            assert_eq!(f.df.n_rows(), 2);
            assert!(f.df.has_column("Fare"));
        }
        other => panic!("unexpected {other:?}"),
    }
    let out = run(&format!(
        "{PRELUDE}agg = df.groupby(['Sex', 'Embarked'])['Fare'].agg('sum')\n"
    ));
    match out.get("agg") {
        Some(RtValue::Frame(f)) => assert!(f.df.n_rows() >= 3),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn head_covering_every_row_shares_the_columns() {
    let out = run(&format!("{PRELUDE}full = df.head(8000)
part = df.head(3)
"));
    let frame = |name: &str| match out.vars.get(name) {
        Some(RtValue::Frame(f)) => f,
        other => panic!("{name} is not a frame: {other:?}"),
    };
    let (df, full, part) = (frame("df"), frame("full"), frame("part"));
    assert_eq!(full, df);
    for name in df.df.names() {
        let col = df.df.column(name).unwrap();
        assert!(std::ptr::eq(full.df.column(name).unwrap(), col), "{name} copied");
        assert!(!std::ptr::eq(part.df.column(name).unwrap(), col), "{name} shared");
    }
    assert_eq!(part.index, vec![0, 1, 2]);
}

#[test]
fn sort_head_slice_sample() {
    let out = run(&format!("{PRELUDE}df = df.sort_values(by='Fare', ascending=False)\n"));
    assert_eq!(
        out.output_frame().unwrap().column("Fare").unwrap().get(0).unwrap(),
        Value::Float(71.28)
    );
    assert_eq!(run(&format!("{PRELUDE}df = df.head(3)\n")).output_frame().unwrap().n_rows(), 3);
    assert_eq!(run(&format!("{PRELUDE}df = df[2:5]\n")).output_frame().unwrap().n_rows(), 3);
    assert_eq!(
        run(&format!("{PRELUDE}df = df.sample(4, random_state=0)\n"))
            .output_frame()
            .unwrap()
            .n_rows(),
        4
    );
    assert_eq!(
        run(&format!("{PRELUDE}df = df.sample(frac=0.5, random_state=0)\n"))
            .output_frame()
            .unwrap()
            .n_rows(),
        5
    );
}

/// pandas' default `na_position='last'`: nulls sort last in both
/// directions, in row order, and equal values keep their row order.
#[test]
fn sort_values_puts_nulls_last_in_both_directions() {
    for (ascending, first) in [("True", 2), ("False", 54)] {
        let out = run(&format!(
            "{PRELUDE}df = df.sort_values(by='Age', ascending={ascending})\n"
        ));
        let frame = out.output_frame().unwrap();
        let age = frame.column("Age").unwrap();
        let fare = frame.column("Fare").unwrap();
        assert_eq!(
            age.get(0).unwrap(),
            Value::Int(first),
            "ascending={ascending}"
        );
        // The two null ages (rows 5 and 9) come last, in row order.
        assert!(age.get(8).unwrap().is_null(), "ascending={ascending}");
        assert!(age.get(9).unwrap().is_null(), "ascending={ascending}");
        assert_eq!(fare.get(8).unwrap(), Value::Float(8.46));
        assert_eq!(fare.get(9).unwrap(), Value::Float(30.07));
        // The tied ages 35 (rows 3 and 4) keep their row order.
        let tied: Vec<Value> = (0..10)
            .filter(|&i| age.get(i).unwrap() == Value::Int(35))
            .map(|i| fare.get(i).unwrap())
            .collect();
        assert_eq!(tied, vec![Value::Float(53.1), Value::Float(8.05)]);
    }
}

#[test]
fn sample_takes_the_rows_the_frame_sampler_takes() {
    let table = read_csv_str(CSV).unwrap();
    for (n, seed) in [(4, 0), (7, 3), (10, 11)] {
        let out = run(&format!(
            "{PRELUDE}df = df.sample({n}, random_state={seed})\n"
        ));
        assert_eq!(out.output_frame().unwrap(), &table.sample(n, seed).unwrap());
    }
}

#[test]
fn dedup_and_reset_index() {
    let out = run(&format!("{PRELUDE}df = df.drop_duplicates()\ndf = df.reset_index(drop=True)\n"));
    assert_eq!(out.output_frame().unwrap().n_rows(), 10);
}

#[test]
fn astype_and_to_numeric() {
    let out = run(&format!("{PRELUDE}df['Survived'] = df['Survived'].astype('float')\n"));
    assert_eq!(
        out.output_frame().unwrap().column("Survived").unwrap().dtype(),
        lucid_frame::DType::Float64
    );
    let out = run(&format!("{PRELUDE}df['Fare'] = pd.to_numeric(df['Fare'])\n"));
    assert!(out.output_frame().unwrap().column("Fare").unwrap().is_numeric());
}

#[test]
fn select_dtypes_and_columns_attr() {
    let out = run(&format!("{PRELUDE}num = df.select_dtypes(include='number')\ncols = df.columns\n"));
    match out.get("num") {
        Some(RtValue::Frame(f)) => assert_eq!(f.df.n_cols(), 3),
        other => panic!("unexpected {other:?}"),
    }
    match out.get("cols") {
        Some(RtValue::List(items)) => assert_eq!(items.len(), 5),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn concat_frames() {
    let out = run(&format!("{PRELUDE}df = pd.concat([df, df])\n"));
    assert_eq!(out.output_frame().unwrap().n_rows(), 20);
}

#[test]
fn realistic_errors_surface() {
    // Unknown column — KeyError.
    assert!(matches!(
        run_err(&format!("{PRELUDE}x = df['Ghost']\n")),
        lucid_interp::InterpError::Frame(_)
    ));
    // Ordering a string column against a number — TypeError.
    assert!(matches!(
        run_err(&format!("{PRELUDE}df = df[df['Sex'] < 80]\n")),
        lucid_interp::InterpError::Frame(_) | lucid_interp::InterpError::TypeError(_)
    ));
    // str accessor on numeric — AttributeError-ish.
    assert!(run_err(&format!("{PRELUDE}df['Age'] = df['Age'].str.lower()\n"))
        .to_string()
        .contains("str"));
    // Dropping a missing column fails like pandas.
    assert!(matches!(
        run_err(&format!("{PRELUDE}df = df.drop('Ghost', axis=1)\n")),
        lucid_interp::InterpError::Frame(_)
    ));
}

#[test]
fn paper_example_script_runs() {
    // Figure 1b from the paper (diabetes pipeline) on a matching table.
    let csv = "Age,SkinThickness,Outcome\n22,35,1\n40,20,0\n19,,1\n24,99,0\n30,31,1\n";
    let mut i = Interpreter::new();
    i.register_table("diabetes.csv", read_csv_str(csv).unwrap());
    let src = "\
import pandas as pd
df = pd.read_csv('diabetes.csv')
df = df.fillna(df.mean())
df = df[df['Age'].between(18, 25)]
df = df[df['SkinThickness'] < 80]
df = pd.get_dummies(df)
";
    let out = i.run(&parse_module(src).unwrap()).unwrap();
    let f = out.output_frame().unwrap();
    assert_eq!(f.n_rows(), 2); // ages 22, 19 pass both filters; 24 has SkinThickness 99
    assert_eq!(f.total_null_count(), 0);
}
