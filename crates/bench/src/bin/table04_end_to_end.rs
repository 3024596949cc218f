fn main() {
    reis_bench::figures::table04_end_to_end().print();
}
